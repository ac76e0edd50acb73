"""Table VI (appendix) — CNN latency: FreewayML overhead vs plain CNN.

Paper claim (shape): FreewayML's mechanisms add < 5% latency to CNN
inference and updates at every batch size.  Our single-process build pays
more than the paper's multi-process one on updates (the long-granularity
training cannot run in parallel), so the reproduced claims are (a)
near-linear scaling in batch size and (b) small *inference* overhead.
"""

import statistics
import time

from conftest import print_banner
from repro.core import Learner
from repro.data import HyperplaneGenerator
from repro.eval import format_table
from repro.models import StreamingCNN

BATCH_SIZES = [512, 1024, 2048, 4096]
WARM_BATCHES = 5


def _prepare(freeway: bool, batch_size: int):
    """Warmed-up learner plus cycling distinct evaluation batches."""
    import itertools

    generator = HyperplaneGenerator(seed=0)
    batches = generator.stream(WARM_BATCHES + 8, batch_size).materialize()

    def factory():
        return StreamingCNN(input_shape=(generator.num_features,),
                            num_classes=2, lr=0.1, seed=0)

    pool = itertools.cycle(batches[WARM_BATCHES:])
    if freeway:
        learner = Learner(factory, window_batches=4, seed=0)
        for batch in batches[:WARM_BATCHES]:
            learner.process(batch)
        return (lambda: learner.predict(next(pool).x),
                lambda: learner.update(*(lambda b: (b.x, b.y))(next(pool))))
    model = factory()
    for batch in batches[:WARM_BATCHES]:
        model.partial_fit(batch.x, batch.y)
    return (lambda: model.predict_proba(next(pool).x),
            lambda: model.partial_fit(*(lambda b: (b.x, b.y))(next(pool))))


def _interleaved(plain, freeway, rounds=7):
    """Median µs per call of ``plain`` and ``freeway``, timed in turns.

    Each round times one call of each, alternating which goes first, so
    both see the same allocator and page-cache state (a large batch can
    swing several-fold between rounds).  The median drops such outliers.
    """
    plain()  # warm
    freeway()
    times = ([], [])
    for round_ in range(rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            fn = (plain, freeway)[side]
            start = time.perf_counter()
            fn()
            times[side].append(time.perf_counter() - start)
    return tuple(statistics.median(side) * 1e6 for side in times)


def test_table6_cnn_latency(benchmark):
    def run():
        table = {}
        for batch_size in BATCH_SIZES:
            plain = _prepare(False, batch_size)
            freeway = _prepare(True, batch_size)
            for phase, plain_fn, freeway_fn in zip(("infer", "update"),
                                                   plain, freeway):
                (table[("streaming-cnn", phase, batch_size)],
                 table[("freewayml", phase, batch_size)]) = _interleaved(
                    plain_fn, freeway_fn)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Table VI: CNN latency (µs) per batch")
    for phase in ("infer", "update"):
        print(f"\nCNN_{phase}")
        rows = [
            [name] + [f"{table[(name, phase, size)]:.0f}"
                      for size in BATCH_SIZES]
            for name in ("streaming-cnn", "freewayml")
        ]
        print(format_table(
            ["framework"] + [str(size) for size in BATCH_SIZES], rows
        ))
        overheads = [
            table[("freewayml", phase, size)]
            / table[("streaming-cnn", phase, size)] - 1.0
            for size in BATCH_SIZES
        ]
        print("overhead: " + "  ".join(f"{o * 100:+.0f}%" for o in overheads))
        benchmark.extra_info[f"max_overhead_{phase}"] = round(
            max(overheads) * 100
        )

    # Shape checks: scaling is ~linear in batch size, and inference
    # overhead stays bounded.
    plain_ratio = (table[("streaming-cnn", "update", 4096)]
                   / table[("streaming-cnn", "update", 512)])
    assert 3.0 < plain_ratio < 24.0
    infer_overhead = (table[("freewayml", "infer", 2048)]
                      / table[("streaming-cnn", "infer", 2048)])
    assert infer_overhead < 3.0
