"""Tour of the emotion space.

Points in the unit cube carry a pleasure/arousal/dominance reading; the
sign octant gives a mood word and a fixed linear regression turns any
point into Big Five trait estimates. States integrate appraisal deltas,
plain (p, a, d) triples, cycle by cycle and stay inside the cube by
clamping.
"""

from itertools import product

from affectsim import PadVector, big_five, integrate_appraisals, new_state, octant_label


def main() -> None:
    print("the eight corner moods:")
    for signs in product((1, -1), repeat=3):
        point = PadVector(*(0.5 * s for s in signs))
        marks = "".join("+" if s > 0 else "-" for s in signs)
        print(f"  ({marks})  {octant_label(point).value}")

    print()
    point = PadVector(0.0, 1.0, 1.0)
    traits = big_five(point)
    print(f"big five at P=0, A=1, D=1:")
    print(f"  extraversion        {traits.extraversion:+.3f}")
    print(f"  agreeableness       {traits.agreeableness:+.3f}")
    print(f"  conscientiousness   {traits.conscientiousness:+.3f}")
    print(f"  emotional stability {traits.emotional_stability:+.3f}")
    print(f"  sophistication      {traits.sophistication:+.3f}")

    print()
    print("integrating appraisal deltas (pleasure channel):")
    state = new_state()
    for cycle, delta in enumerate([0.4, 0.4, 0.4, -0.2]):
        state = integrate_appraisals(state, [(delta, 0.0, 0.0)], cycle)
        print(
            f"  cycle {cycle}: delta {delta:+.1f} -> pleasure "
            f"{state.current.pleasure:+.2f} ({octant_label(state.current).value})"
        )
    print("  (the third step hit the cube wall and clamped at +1)")


if __name__ == "__main__":
    main()
