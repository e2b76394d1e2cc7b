#!/usr/bin/env python3
"""End-to-end protocol demo: simulate, sift, estimate, and print a summary.

The key rates printed last are those of the nominal eta, not of the
estimated statistics.
"""

import numpy as np

from hardyqkd import analysis, protocol, quantum

ETA = 0.99
ROUNDS = 200_000
SEED = 2024


def main() -> None:
    behavior = quantum.hardy_behavior(ETA)
    transcript = protocol.simulate(ROUNDS, behavior, protocol.NONUNIFORM,
                                   reveal_fraction=0.25, seed=SEED)
    est = protocol.estimate_h(transcript.revealed_rounds())
    sifted = protocol.sift(transcript)
    alice, bob = protocol.key_bits(sifted)
    disagree = float(np.mean(alice != bob)) if len(alice) else 0.0

    print(f"eta = {ETA}, rounds = {ROUNDS}, seed = {SEED}")
    print(f"sifted key length = {len(sifted)}, disagreement = {disagree:.4f}")
    for name, val, se in zip(("h1", "h2", "h3", "h4"), est.h, est.stderr):
        print(f"  {name} = {val:.5f} +/- {se:.5f}")

    grid = analysis.build_gamma_grid(protocol.NONUNIFORM, resolution=81)
    rates = analysis.key_rates([ETA], protocol.NONUNIFORM, grid)
    (g1, g2), (k1, k2) = rates.guess[0], rates.key_rate[0]
    nominal = f"nominal eta = {ETA} (not from the estimate)"
    print(f"key rate (basic)    = {k1:.6f} (guess {g1:.4f}) at {nominal}")
    print(f"key rate (dropping) = {k2:.6f} (guess {g2:.4f}) at {nominal}")


if __name__ == "__main__":
    main()
