"""Coincidence amplification and why purify-then-amplify never wins.

Two copies of a cat mixture interfere on a balanced splitter with a
coherent ancilla; conditioning on a double click doubles the amplitude.
For the odd cat the output fraction beats the input only above a
threshold fraction, and for the even cat it never does. Chaining a
purification stage into the amplifier always lands below the start.

Run with: python3 demos/amplification_nogo.py
"""

import math

from catpurify import (
    CssParams,
    MixedCss,
    amplification_threshold,
    amplify,
    concat_stages,
)
from catpurify import dyads as dy


def main():
    print("threshold fraction above which the odd-cat amplifier purifies:")
    for alpha in (0.3, 0.5, 0.589, 0.7, 1.0):
        t = amplification_threshold(alpha)
        note = " (unreachable: > 1)" if t > 1.0 else ""
        print(f"  alpha={alpha:5.3f}: p > {t:.6f}{note}")
    crossing = math.sqrt(math.log(1.0 + math.sqrt(2.0)) / 2.0)
    print(f"the threshold hits 1 at alpha={crossing:.6f} (alpha^2=ln(1+sqrt2)/2)")

    print("\nodd cat, alpha=0.5, around the threshold:")
    for p in (0.15, 0.2104196435293945, 0.3, 0.5):
        out = amplify(MixedCss(CssParams(0.5, math.pi), p))
        sign = "+" if out.p >= p else "-"
        print(f"  p_in={p:.6f} -> p_out={out.p:.6f}  ({sign})")

    print("\neven cat never gains, any alpha, any p:")
    for alpha, p in ((0.5, 0.5), (1.0, 0.9), (2.0, 0.99)):
        out = amplify(MixedCss(CssParams(alpha, 0.0), p))
        print(f"  alpha={alpha}, p_in={p} -> p_out={out.p:.6f}")

    # the closed form against the exact three-mode cascade
    p_closed = amplify(MixedCss(CssParams(0.7, math.pi), 0.6)).p
    p_sim = dy.amplifier_sim(0.6, CssParams(0.7, math.pi))
    print(
        f"\ndyad cascade check at alpha=0.7, p=0.6: "
        f"{p_sim:.15f} vs {p_closed:.15f}"
    )
    # any other phase phi comes out at 2 phi, through the same formula
    out = amplify(MixedCss(CssParams(0.7, 1.0), 0.6))
    p_sim = dy.amplifier_sim(0.6, CssParams(0.7, 1.0))
    print(
        f"and at phi=1 (out phi={out.params.phi:g}): "
        f"{p_sim:.15f} vs {out.p:.15f}"
    )

    print("\npurify at half amplitude, then amplify back (alpha=1):")
    for p_in in (0.3, 0.5, 0.7, 0.9):
        p_mid, p_final = concat_stages(p_in, 1.0)
        print(
            f"  p_in={p_in:.2f} -> purified {p_mid:.4f} "
            f"-> amplified {p_final:.4f}  (net {p_final - p_in:+.4f})"
        )
    print("the middle stage helps, the amplifier gives it all back and more")


if __name__ == "__main__":
    main()
