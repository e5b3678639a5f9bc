"""Every number the paper publishes, for paper-vs-measured reports.

Tables 1-3 are transcribed from the SIGMOD 1988 text.  ``None`` marks cells
the paper leaves blank (the clustered-index rows for the Teradata machine,
which cannot build clustered indices).  Figures 1-15 are published only as
graphs; their qualitative claims are the shape checks of the figure
experiments.
"""

from __future__ import annotations

#: Table 1 — selection queries, execution time in seconds.
#: row -> size -> machine -> seconds
TABLE1_SELECTIONS: dict[str, dict[int, dict[str, float | None]]] = {
    "1% nonindexed selection": {
        10_000: {"teradata": 6.86, "gamma": 1.63},
        100_000: {"teradata": 28.22, "gamma": 13.83},
        1_000_000: {"teradata": 213.13, "gamma": 134.86},
    },
    "10% nonindexed selection": {
        10_000: {"teradata": 15.97, "gamma": 2.11},
        100_000: {"teradata": 110.96, "gamma": 17.44},
        1_000_000: {"teradata": 1106.86, "gamma": 181.72},
    },
    "1% selection using non-clustered index": {
        10_000: {"teradata": 7.81, "gamma": 1.03},
        100_000: {"teradata": 29.94, "gamma": 5.32},
        1_000_000: {"teradata": 222.65, "gamma": 53.86},
    },
    "10% selection using non-clustered index": {
        10_000: {"teradata": 16.82, "gamma": 2.16},
        100_000: {"teradata": 111.40, "gamma": 17.65},
        1_000_000: {"teradata": 1107.59, "gamma": 182.00},
    },
    "1% selection using clustered index": {
        10_000: {"teradata": None, "gamma": 0.59},
        100_000: {"teradata": None, "gamma": 1.25},
        1_000_000: {"teradata": None, "gamma": 7.50},
    },
    "10% selection using clustered index": {
        10_000: {"teradata": None, "gamma": 1.26},
        100_000: {"teradata": None, "gamma": 7.27},
        1_000_000: {"teradata": None, "gamma": 69.60},
    },
    "single tuple select": {
        10_000: {"teradata": 1.08, "gamma": 0.15},
        100_000: {"teradata": 1.08, "gamma": 0.15},
        1_000_000: {"teradata": 1.08, "gamma": 0.20},
    },
}

#: Table 2 — join queries, execution time in seconds.
TABLE2_JOINS: dict[str, dict[int, dict[str, float | None]]] = {
    "joinABprime (non-key attributes)": {
        10_000: {"teradata": 34.9, "gamma": 6.5},
        100_000: {"teradata": 321.8, "gamma": 47.6},
        1_000_000: {"teradata": 3419.4, "gamma": 2938.2},
    },
    "joinAselB (non-key attributes)": {
        10_000: {"teradata": 35.6, "gamma": 5.1},
        100_000: {"teradata": 331.7, "gamma": 34.9},
        1_000_000: {"teradata": 3534.5, "gamma": 703.1},
    },
    "joinCselAselB (non-key attributes)": {
        10_000: {"teradata": 27.8, "gamma": 7.0},
        100_000: {"teradata": 191.8, "gamma": 38.0},
        1_000_000: {"teradata": 2032.7, "gamma": 731.2},
    },
    "joinABprime (key attributes)": {
        10_000: {"teradata": 22.2, "gamma": 5.7},
        100_000: {"teradata": 131.3, "gamma": 45.6},
        1_000_000: {"teradata": 1265.1, "gamma": 2926.7},
    },
    "joinAselB (key attributes)": {
        10_000: {"teradata": 25.0, "gamma": 5.0},
        100_000: {"teradata": 170.3, "gamma": 34.1},
        1_000_000: {"teradata": 1584.3, "gamma": 737.7},
    },
    "joinCselAselB (key attributes)": {
        10_000: {"teradata": 23.8, "gamma": 7.2},
        100_000: {"teradata": 156.7, "gamma": 37.4},
        1_000_000: {"teradata": 1509.6, "gamma": 712.8},
    },
}

#: Table 3 — update queries, execution time in seconds.
TABLE3_UPDATES: dict[str, dict[int, dict[str, float | None]]] = {
    "append 1 tuple (no indices)": {
        10_000: {"teradata": 0.87, "gamma": 0.18},
        100_000: {"teradata": 1.29, "gamma": 0.18},
        1_000_000: {"teradata": 1.47, "gamma": 0.20},
    },
    "append 1 tuple (one index)": {
        10_000: {"teradata": 0.94, "gamma": 0.60},
        100_000: {"teradata": 1.62, "gamma": 0.63},
        1_000_000: {"teradata": 1.73, "gamma": 0.66},
    },
    "delete 1 tuple": {
        10_000: {"teradata": 0.71, "gamma": 0.44},
        100_000: {"teradata": 0.42, "gamma": 0.56},
        1_000_000: {"teradata": 0.71, "gamma": 0.61},
    },
    "modify 1 tuple (key attribute)": {
        10_000: {"teradata": 2.62, "gamma": 1.01},
        100_000: {"teradata": 2.99, "gamma": 0.86},
        1_000_000: {"teradata": 4.82, "gamma": 1.13},
    },
    "modify 1 tuple (non-indexed attribute)": {
        10_000: {"teradata": 0.49, "gamma": 0.36},
        100_000: {"teradata": 0.90, "gamma": 0.36},
        1_000_000: {"teradata": 1.12, "gamma": 0.36},
    },
    "modify 1 tuple (non-clustered index attribute)": {
        10_000: {"teradata": 0.84, "gamma": 0.50},
        100_000: {"teradata": 1.16, "gamma": 0.46},
        1_000_000: {"teradata": 3.72, "gamma": 0.52},
    },
}
