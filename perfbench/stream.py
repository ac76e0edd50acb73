"""Stream workloads: ``Learner.process`` over the repeated pattern-mix schedule.

``pattern_mix_schedule`` walks one concept through slight drift, sudden
jumps and reoccurrences (segment length 12, 72 batches a cycle), so every
FreewayML mechanism fires: the multi-granularity ensemble, coherent
experience clustering (CEC) and knowledge reuse.  Before the clock starts
the seed draws :data:`CONCEPT_SETS` independent concept sets and the
schedule runs :data:`CYCLES_PER_SET` cycles over each; the timed loop walks
that stream repeatedly, so every set reoccurs.  Several sets make
accuracy and cost depend less on how one seed happens to place concepts.  A run's work is fixed by its ``--seconds``: the
whole cycles the workload processes in that time on the reference machine
(:mod:`calibrate`), so accuracy and memory never depend on speed.

- ``stream-mlp`` (128 rows a batch): training and plan capture/replay
  dominate, and batches of changing row counts in the adaptive windows
  churn the plan cache.
- ``stream-cnn`` (32 rows a batch, so a run still times over a thousand
  batches): the only workload that runs the conv/pool kernels; the CNN is
  not plan-eligible, so it bypasses ``repro.nn.plan`` entirely.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.core import Learner
from repro.data.drift import pattern_mix_schedule, stream_from_schedule
from repro.eval import model_factory_for
from repro.perf import optimizations_disabled

import calibrate
from tracing import probe_metrics, program_counters

NUM_FEATURES = 16
NUM_CLASSES = 4
SEGMENT_LENGTH = 12
CONCEPT_SETS = 10
CYCLES_PER_SET = 1
MIN_BATCHES = 1000
WARMUP_BATCHES = 24
CYCLE_BATCHES = sum(segment.num_batches for segment in pattern_mix_schedule(
    np.random.default_rng(0), num_classes=NUM_CLASSES,
    num_features=NUM_FEATURES, segment_length=SEGMENT_LENGTH)[1])


def _digest(labels) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(labels).tobytes(),
                           digest_size=16).digest()


class StreamRun:
    """What one pass over the stream produced."""

    def __init__(self):
        self.latencies: list[float] = []
        self.accuracies: list[float] = []
        self.digests: list[bytes] = []
        self.batches = 0
        self.rows = 0
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.scaled_latencies = None
        #: Calibration samples, ``(start, end, kernel seconds)``.
        self.samples: list = []
        self.learner = None
        self.counters_before = None
        self.probe_state = None


class StreamWorkload:
    """One model family over the stream at one batch size."""

    def __init__(self, model: str, batch_size: int, rate: float):
        self.model = model
        self.batch_size = batch_size
        #: Batches per second on the reference machine: sizes the work.
        self.rate = rate

    def build(self) -> Learner:
        factory = model_factory_for(self.model, NUM_FEATURES, NUM_CLASSES,
                                    lr=0.3, seed=0)
        return Learner(factory, seed=0)

    def _stream(self, rng, cycles: int) -> list:
        concepts, segments = pattern_mix_schedule(
            rng, num_classes=NUM_CLASSES, num_features=NUM_FEATURES,
            segment_length=SEGMENT_LENGTH)
        return list(stream_from_schedule(concepts, segments * cycles,
                                         self.batch_size, rng,
                                         num_classes=NUM_CLASSES))

    def set_up(self, seed: int) -> Learner:
        """Warm the interpreter and numpy on a throwaway learner, then
        build the learner under test."""
        warmup = self._stream(np.random.default_rng([seed, 1]), 1)
        learner = self.build()
        for batch in warmup[:WARMUP_BATCHES]:
            learner.process(batch)
        return self.build()

    def make_inputs(self, seed: int, seconds: float) -> list:
        rng = np.random.default_rng(seed)
        return [batch for _ in range(CONCEPT_SETS)
                for batch in self._stream(rng, CYCLES_PER_SET)]

    def recorder(self):
        return None

    def work(self, seconds: float) -> int:
        """Batches a run processes: whole cycles worth ``seconds`` at this
        workload's reference rate, and never fewer than
        :data:`MIN_BATCHES`."""
        cycles = max(round(seconds * self.rate / CYCLE_BATCHES),
                     -(-MIN_BATCHES // CYCLE_BATCHES))
        return cycles * CYCLE_BATCHES

    def measure(self, learner: Learner, batches: list, count: int,
                probe=None) -> StreamRun:
        """Process ``count`` batches; record each batch's latency and
        predicted labels.  Every ``calibrate.EVERY_S`` the clock stops for
        the calibration kernel."""
        run = StreamRun()
        predict = learner.predict
        digests = run.digests

        def recording_predict(x):
            result = predict(x)
            digests.append(_digest(result.labels))
            return result

        learner.predict = recording_predict
        latencies = run.latencies
        accuracies = run.accuracies
        begins = []
        samples = run.samples
        run.counters_before = program_counters()
        clock = time.perf_counter
        calibrate.sample(samples)
        sampled = clock()
        for processed in range(count):
            batch = batches[processed % len(batches)]
            begin = clock()
            report = learner.process(batch)
            end = clock()
            begins.append(begin)
            latencies.append(end - begin)
            accuracies.append(report.accuracy)
            if end - sampled >= calibrate.EVERY_S:
                calibrate.sample(samples)
                sampled = clock()
        calibrate.sample(samples)
        del learner.predict
        if probe is not None:
            run.probe_state = probe.snapshot()
        run.wall_s, run.scaled_wall_s = calibrate.scaled_span(samples)
        run.scaled_latencies = np.multiply(
            latencies, calibrate.factors_at(samples, begins))
        run.batches = count
        run.rows = sum(len(batches[i % len(batches)]) for i in range(count))
        run.learner = learner
        return run

    def attempted(self, run: StreamRun) -> tuple[int, int]:
        return run.batches, 0

    def end_to_end(self, run: StreamRun, batches: list) -> dict:
        latencies = run.scaled_latencies
        return {
            "rows_per_s": run.rows / run.scaled_wall_s,
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
            "accuracy": float(np.mean(run.accuracies)),
        }

    def detail(self, run: StreamRun) -> dict:
        return {"batches": run.batches, "wall_s": run.wall_s,
                "scaled_wall_s": run.scaled_wall_s,
                "raw_latency_p50_ms": float(np.median(run.latencies)) * 1e3,
                "latency_samples": len(run.latencies)}

    def check(self, run: StreamRun, batches: list) -> str | None:
        """Every batch's labels must equal an unoptimized pass's labels."""
        with optimizations_disabled():
            reference = self.measure(self.build(), batches, run.batches)
        for index, (got, want) in enumerate(zip(run.digests,
                                                reference.digests)):
            if got != want:
                return (f"batch {index}: predicted labels differ from "
                        f"the optimizations_disabled() pass")
        if len(run.digests) != len(reference.digests):
            return "pass lengths differ"
        return None

    def check_traced(self, run: StreamRun, traced: StreamRun,
                     batches: list) -> str | None:
        """The traced pass must answer exactly as the checked one."""
        if run.digests != traced.digests:
            return "traced pass answered differently from untraced pass"
        return None

    def layer_metrics(self, run: StreamRun, batches: list) -> dict:
        metrics = probe_metrics(run.probe_state, run.counters_before,
                                run.wall_s)
        metrics["core.knowledge_bytes"] = run.learner.knowledge.total_nbytes()
        metrics["loadgen.latency_samples"] = len(run.latencies)
        return metrics


WORKLOADS = {
    "stream-mlp": StreamWorkload("mlp", 128, rate=750.0),
    "stream-cnn": StreamWorkload("cnn", 32, rate=150.0),
}
