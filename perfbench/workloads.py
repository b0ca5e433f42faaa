"""Workload definitions and the prediction map of the benchmark.

Each workload is a fixed list of CLI operations; one pass runs every
operation once, as a cold ``python -m shortroots.cli <argv> --json``
child, in an order shuffled from the seed.

A run of ``--seconds`` s makes ``round(passes * seconds / REFERENCE_S)``
passes, so it does the same work on every commit and keeps every sample
count, and hence the rank behind every percentile.  At the seed commit, on
a 2 vCPU Intel Xeon with Python 3.11, one pass takes about 7.7 s
(catalog), 3.9 s (nullcone) and 6.6 s (wide) with its reference
computations, so a run lasts about ``seconds``.
"""

REFERENCE_S = 36

WORKLOADS = {
    "catalog": {
        "why": "the ROADMAP's end-to-end sweep: every layer works, sign-partition "
               "and Coxeter checks dominate, and B6/C6 hit the Weyl-order and rank caps",
        "passes": 4,
        "ops": [
            ["verify", "G2"],
            ["verify", "B3"],
            ["verify", "C4"],
            ["verify", "F4"],
            ["verify", "B6"],
            ["verify", "C6"],
            ["verify", "E8"],
            ["table1"],
        ],
    },
    "nullcone": {
        "why": "graded characters only: Weyl alternating sums dominate F4 and C4, DP "
               "tables dominate the low-rank high-degree systems, C5 is refused by the rank cap",
        "passes": 9,
        "ops": [
            ["nullcone-char", "F4", "--max-degree", "8"],
            ["nullcone-char", "C4", "--max-degree", "8"],
            ["nullcone-char", "B4", "--max-degree", "8"],
            ["nullcone-char", "C3", "--max-degree", "12"],
            ["nullcone-char", "B3", "--max-degree", "12"],
            ["nullcone-char", "G2", "--max-degree", "12"],
            ["nullcone-char", "C5", "--max-degree", "6"],
        ],
    },
    "wide": {
        "why": "large ranks with no Weyl enumeration and no graded characters: pairwise "
               "inner products, Freudenthal, root closure, and the antichain poset cap on C9",
        "passes": 5,
        "ops": [
            ["verify", "B7", "--check", "sign-partition"],
            ["info", "C9"],
            ["info", "A30"],
            ["info", "B10"],
            ["antichains", "C8"],
            ["antichains", "C9"],
        ],
    },
}

# Layer -> which end-to-end metrics it should move, on which workloads.
# Written before measuring; a change to one layer is judged against this.
PREDICTIONS = {
    "gradedchar": {
        "per_layer": ["gradedchar.nullcone_character.self_s", "gradedchar.graded_multiplicity_s",
                      "gradedchar.graded_multiplicity_calls", "gradedchar.entries",
                      "weyl.enumerate_group_s", "weyl.elements"],
        "moves": ["cpu_rel", "wall_s", "cpu_s", "op_p50_s", "peak_rss_mb"],
        "workloads": {"nullcone": "most", "catalog": "a little", "wide": "not at all"},
    },
    "littleadjoint.delta_partition": {
        "per_layer": ["littleadjoint.delta_partition_s", "littleadjoint.delta_partition_calls"],
        "moves": ["cpu_rel", "wall_s", "cpu_s"],
        "workloads": {"wide": "yes", "catalog": "yes", "nullcone": "not at all"},
    },
    "littleadjoint.freudenthal": {
        "per_layer": ["littleadjoint.freudenthal_s", "littleadjoint.weights"],
        "moves": ["cpu_rel", "wall_s"],
        "workloads": {"wide": "yes"},
    },
    "rootsystem": {
        "per_layer": ["rootsystem.build_s", "rootsystem.build_calls", "rootsystem.roots"],
        "moves": ["cpu_rel", "wall_s"],
        "workloads": {"wide": "yes"},
    },
    "weyl": {
        "per_layer": ["weyl.coxeter_s", "weyl.semidirect_s"],
        "moves": ["cpu_rel", "wall_s"],
        "workloads": {"catalog": "yes"},
    },
    "antichains": {
        "per_layer": ["antichains.count_s", "antichains.antichains", "antichains.poset_size"],
        "moves": ["capped_ratio"],
        "workloads": {"wide": "yes"},
    },
    "reduction": {
        "per_layer": ["reduction.self_s"],
        "moves": [],
        "workloads": {"catalog": "nothing expected", "nullcone": "nothing expected",
                      "wide": "nothing expected"},
    },
    "checks": {
        "per_layer": ["checks.<check-id>_s", "checks.pass", "checks.skipped", "checks.fail"],
        "moves": ["the end-to-end metrics of the workload where the check runs"],
        "workloads": {"catalog": "all 15 checks", "wide": "sign-partition"},
    },
    "cli": {
        "per_layer": ["cli.self_s", "cli.output_bytes"],
        "moves": ["op_p50_s"],
        "workloads": {"nullcone": "yes"},
    },
}


def op_id(argv) -> str:
    """Stable name of one operation, as used in the golden file and reports."""
    return " ".join(argv)
