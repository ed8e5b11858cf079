"""Engine tour: one session, the whole query zoo, batched and cached.

Builds a small uncertain catalogue and a certain product table, then runs
mixed batches through :mod:`repro.engine` sessions:

* PRSQ at several thresholds (the probability map is computed once per
  query point and shared across alphas);
* causality (algorithm CP) for every discovered non-answer;
* reverse skyline / reverse k-skyband / reverse top-k on the certain
  table, plus CR causality for a reverse-skyline non-answer;
* the same batch again, to show cache hits, and through the parallel
  executor, to show order-preserving fan-out.

Run:  python examples/engine_batch.py
"""

from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine import (
    CausalityCertainSpec,
    CausalitySpec,
    KSkybandCausalitySpec,
    ParallelExecutor,
    PRSQSpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    ReverseTopKSpec,
    Session,
)
from repro.exceptions import NotANonAnswerError


def uncertain_tour() -> None:
    dataset = generate_uncertain_dataset(120, 2, seed=11)
    session = Session(dataset)
    q = (5000.0, 5000.0)

    print("== uncertain session:", session)
    batch = [PRSQSpec(q=q, alpha=alpha, want="answers") for alpha in (0.3, 0.5, 0.7)]
    for outcome in session.execute_batch(batch):
        print(
            f"  PRSQ alpha={outcome.spec.alpha}: {len(outcome.value)} answers "
            f"({'cache hit' if outcome.cached else 'computed'}, "
            f"{outcome.elapsed_s * 1e3:.1f} ms)"
        )

    non_answers = session.query(
        PRSQSpec(q=q, alpha=0.5, want="non_answers")
    ).to_raw()
    explain = [CausalitySpec(an=an, q=q, alpha=0.5) for an in non_answers[:4]]
    for outcome in session.execute_batch(explain):
        result = outcome.value
        top = result.ranked()[:2]
        print(
            f"  why not {result.an_oid!r}? top causes: "
            + ", ".join(f"{oid} ({resp:.2f})" for oid, resp in top)
        )

    # Second pass: everything above is now a cache hit.
    again = session.execute_batch(batch + explain)
    print(f"  re-run of {len(again)} queries: "
          f"{sum(outcome.cached for outcome in again)} served from cache")

    parallel = session.execute_batch(
        batch + explain, executor=ParallelExecutor(workers=2)
    )
    for serial_outcome, parallel_outcome in zip(again, parallel):
        if isinstance(serial_outcome.spec, CausalitySpec):
            # CausalityResult equality covers cost counters too; compare the
            # semantic output (causes + responsibilities).
            assert parallel_outcome.value.same_causality(serial_outcome.value)
        else:
            assert parallel_outcome.value == serial_outcome.value
    print("  parallel executor: identical results, deterministic order")
    print("  cache stats:", session.cache_stats())


def certain_tour() -> None:
    dataset = generate_certain_dataset(400, 2, seed=7)
    session = Session(dataset)
    q = (5000.0, 5000.0)

    print("\n== certain session:", session)
    skyline = session.query(ReverseSkylineSpec(q=q)).to_raw()
    skyband = session.query(ReverseKSkybandSpec(q=q, k=3)).to_raw()
    print(f"  reverse skyline: {len(skyline)} objects; "
          f"reverse 3-skyband: {len(skyband)} objects")

    launch = (900.0, 1100.0)  # a competitively priced launch product
    users = ReverseTopKSpec(
        q=launch,
        k=10,
        weights=((1.0, 0.2), (0.5, 0.5), (0.1, 1.0)),
        user_ids=("perf-first", "balanced", "econ-first"),
    )
    print(f"  reverse top-10 users of launch product {launch}: "
          f"{session.query(users).to_raw()}")

    explained = 0
    for oid in dataset.ids():
        if oid in skyline or explained >= 2:
            continue
        try:
            causality = session.query(CausalityCertainSpec(an=oid, q=q)).to_raw()
            skyband_c = session.query(
                KSkybandCausalitySpec(an=oid, q=q, k=2)
            ).to_raw()
        except NotANonAnswerError:
            continue
        print(
            f"  CR: {len(causality)} causes for {oid!r} "
            f"(responsibility {causality.ranked()[0][1]:.2f} each); "
            f"k=2 skyband causes: {len(skyband_c)}"
        )
        explained += 1


def main() -> None:
    uncertain_tour()
    certain_tour()


if __name__ == "__main__":
    main()
