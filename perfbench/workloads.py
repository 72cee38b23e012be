"""Seeded input generation for the three workloads.

A run is a sequence of passes; a pass is a short list of jobs.  Each
pass draws one job from every slot of its workload, so every pass has
the same cost profile and a run's figures do not depend on the luck of
the draw, while the inputs themselves differ from seed to seed: the
system drawn in a slot, the ranks, the extra factors, the order of the
factors in a spec and the order of the jobs in a pass.

The brute-force slots list systems whose jobs cost about the same on the
code this benchmark was written against; the closed-form slots fix a
shape and draw ranks from a narrow range.
"""

from __future__ import annotations

import random

WORKLOADS = ("brute-classes", "brute-group", "closed-form")

# brute-classes: 2 small factors, |W| 5k-29k, 54-75 classes, all about
# 1.5 s a job (within about 20%).  A1+H4 has the largest group, so it
# sits in every pass and sets the peak RSS.
BRUTE_CLASSES_POOL = (
    "A5+B2", "A5+I2(4)", "A2+F4", "F4+I2(3)", "A1+B5", "A2+D5", "D5+I2(3)")
BRUTE_CLASSES_SLOTS = (("A1+H4",),) + (BRUTE_CLASSES_POOL,) * 4

# brute-group: |W| 240k-365k with 30-66 classes, 5-7 s a job.  A8 has the
# largest group, so it sits in every pass and sets the peak RSS.  Systems
# with many classes (A7+A1+A1, E6+A1+A1) are left out: their charpoly
# time would make this a second brute-classes.
BRUTE_GROUP_SLOTS = (
    ("A8",),
    ("D7", "A7+A2"),
)

# closed-form: one to three large-rank factors, as (family, lowest rank,
# highest rank), all about 1.5-2 s a job, plus up to three factors in all
# with small extras that add little to the vector-model build.
CLOSED_FORM_SLOTS = (
    (("A", 166, 168),),
    (("B", 92, 96),),
    (("D", 104, 108), ("E", 6, 8)),
    (("A", 80, 84), ("D", 88, 92)),
    (("A", 60, 64), ("B", 60, 64), ("D", 60, 64)),
)
CLOSED_FORM_EXTRAS = ("E6", "E7", "E8", "F4", "G2", "H3", "H4")
LEMMA_DEGREE = 500


def _shuffled_spec(rng: random.Random, tokens) -> str:
    tokens = list(tokens)
    rng.shuffle(tokens)
    return "+".join(tokens)


def _factor_label(rng: random.Random, family: str, n: int) -> str:
    if family == "I":
        return f"I2({n})"
    if family == "B" and rng.random() < 0.5:
        family = "C"  # the parser reads Cn as Bn, the same group
    return f"{family}{n}"


def _closed_form_job(rng: random.Random, slot):
    tokens = [_factor_label(rng, family, rng.randint(lo, hi))
              for family, lo, hi in slot]
    for _ in range(rng.randint(0, 3 - len(tokens))):
        if rng.random() < 0.5:
            tokens.append(_factor_label(rng, "I", rng.randint(3, 10 ** 6)))
        else:
            tokens.append(rng.choice(CLOSED_FORM_EXTRAS))
    return {"kind": "count", "spec": _shuffled_spec(rng, tokens)}


def _pass(workload: str, rng: random.Random):
    if workload == "brute-classes":
        jobs = [{"kind": "brute-classes",
                 "spec": _shuffled_spec(rng, rng.choice(slot).split("+"))}
                for slot in BRUTE_CLASSES_SLOTS]
    elif workload == "brute-group":
        jobs = [{"kind": "brute-group",
                 "spec": _shuffled_spec(rng, rng.choice(slot).split("+"))}
                for slot in BRUTE_GROUP_SLOTS]
    else:
        jobs = [_closed_form_job(rng, slot) for slot in CLOSED_FORM_SLOTS]
        jobs.append({"kind": "lemma", "degree": LEMMA_DEGREE})
    rng.shuffle(jobs)
    return jobs


def passes(workload: str, seed: int):
    """The endless pass sequence of a workload; the same seed gives the same one."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield _pass(workload, rng)


def label(job) -> str:
    if job["kind"] == "lemma":
        return f"lemma({job['degree']})"
    return job["spec"]

