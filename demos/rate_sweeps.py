"""Rate tables over drift, jitter, and frame size, written as CSV.

Each sweep mirrors a CLI invocation; the CSVs are byte-stable, so they can
be regenerated and diffed.  The jitter sweep with bounded drift carries the
extra best_rate_bits column: a code designed for more jitter than actually
present stays zero-error, so the tail maximum tightens the achievable rate.
"""

from pathlib import Path

from driftppm.cli import main

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

sweeps = {
    # rate vs drift ratio, no jitter (log-spaced sample points)
    "rate_vs_drift.csv": [
        "sweep", "--param", "gamma",
        "--values", "1,5/4,3/2,7/4,2,4,8,16,32,64,inf",
        "--k", "2", "--M", "65", "--xi", "1",
    ],
    # rate vs jitter ratio without drift
    "rate_vs_jitter_no_drift.csv": [
        "sweep", "--param", "xi", "--values", "1:1.1:0.005",
        "--k", "2", "--M", "65", "--gamma", "1",
    ],
    # rate vs jitter ratio with drift bounded by 7/4 (adds best_rate_bits)
    "rate_vs_jitter_drift.csv": [
        "sweep", "--param", "xi", "--values", "1:1.1:0.005",
        "--k", "2", "--M", "65", "--gamma", "7/4",
    ],
    # rate vs jitter ratio with unbounded drift
    "rate_vs_jitter_unbounded.csv": [
        "sweep", "--param", "xi", "--values", "1:1.1:0.005",
        "--k", "2", "--M", "65", "--gamma", "inf",
    ],
    # rate vs frame size, two and three pulses
    "rate_vs_frame_k2.csv": [
        "sweep", "--param", "M", "--values", "4,8,16,32,64,128",
        "--k", "2", "--xi", "1", "--gamma", "inf",
    ],
    "rate_vs_frame_k3.csv": [
        "sweep", "--param", "M", "--values", "4,8,16,32,64,128",
        "--k", "3", "--xi", "1", "--gamma", "inf",
    ],
    # rate vs frame size under bounded drift, out to M=1024 (425 837 words)
    "rate_vs_frame_drift.csv": [
        "sweep", "--param", "M", "--values", "65,128,256,512,1024",
        "--k", "2", "--gamma", "7/4",
    ],
}

for name, argv in sweeps.items():
    path = OUT / name
    code = main(argv + ["--csv", str(path)])
    assert code == 0, name
    rows = path.read_text().splitlines()
    print(f"{name}: {len(rows) - 1} grid points")
    for row in rows[:4]:
        print("   ", row)
    if len(rows) > 4:
        print("    ...")

print(f"\nCSVs written to {OUT}/")
