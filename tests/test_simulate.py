import math
import random
import tracemalloc
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.simulate import (
    Infeasible,
    InvalidModel,
    SECONDS_PER_DAY,
    StageModel,
    bottleneck_bound,
    bottleneck_stage,
    format_report,
    min_workers_for_deadline,
    simulate,
    single_image_latency,
)
from censusflow.simulate import _run_pipeline


def stages_for(times_workers):
    return [
        StageModel(name=f"s{i}", service_time=t, workers=c)
        for i, (t, c) in enumerate(times_workers)
    ]


def job_level_oracle(n, stages):
    """Independent per-job recursion for a deterministic batch tandem: job j
    enters a stage when it leaves the previous one and is served in arrival
    order by the earliest-free server. No event queue involved."""
    import heapq

    arrivals = [0.0] * n
    for stage in stages:
        free = [0.0] * stage.workers
        heapq.heapify(free)
        departures = []
        for j in range(n):
            start = max(arrivals[j], heapq.heappop(free))
            done = start + stage.service_time
            heapq.heappush(free, done)
            departures.append(done)
        arrivals = departures
    return max(arrivals)


PAPER_TIMES = ((1.6, 14), (12.5, 9), (7.2, 14))


class TestSimulate:
    def test_single_image_latency_is_sum(self):
        result = simulate(1, stages_for([(1.6, 1), (12.5, 1), (7.2, 1)]))
        assert result.makespan == pytest.approx(21.3, abs=1e-9)

    def test_full_parallelism(self):
        result = simulate(100, stages_for([(1.0, 100)]))
        assert result.makespan == pytest.approx(1.0)

    def test_single_server_chain_exact(self):
        stages = stages_for([(10.0, 1), (1.0, 1)])
        result = simulate(5, stages)
        # sum of times + (n-1) * max time
        assert result.makespan == pytest.approx(11.0 + 4 * 10.0)

    def test_matches_job_level_oracle_exactly(self):
        rng = random.Random(4)
        for _ in range(25):
            stages = stages_for(
                [(rng.uniform(0.5, 10.0), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            )
            n = rng.randint(1, 60)
            result = simulate(n, stages)
            assert result.makespan == pytest.approx(job_level_oracle(n, stages), rel=1e-12)

    def test_closed_form_agreement_bottleneck_regime(self):
        rng = random.Random(9)
        for _ in range(10):
            stages = stages_for(
                [(rng.uniform(1.0, 10.0), rng.randint(1, 6)) for _ in range(3)]
            )
            n = 200 * max(s.workers for s in stages)
            result = simulate(n, stages)
            approx = bottleneck_bound(n, stages) + single_image_latency(stages)
            assert abs(result.makespan - approx) / approx < 0.01

    def test_lower_bounds_respected(self):
        stages = stages_for(PAPER_TIMES)
        result = simulate(500, stages)
        assert result.makespan >= bottleneck_bound(500, stages)
        assert result.makespan >= single_image_latency(stages)

    @given(st.integers(min_value=1, max_value=60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_worker_count(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=3))
        times = [data.draw(st.floats(min_value=0.1, max_value=9.9)) for _ in range(k)]
        workers = [data.draw(st.integers(min_value=1, max_value=5)) for _ in range(k)]
        target = data.draw(st.integers(min_value=0, max_value=k - 1))
        base = stages_for(list(zip(times, workers)))
        more = list(zip(times, workers))
        more[target] = (times[target], workers[target] + 1)
        assert simulate(n, stages_for(more)).makespan <= simulate(n, base).makespan + 1e-9

    def test_utilizations_in_unit_interval(self):
        result = simulate(50, stages_for(PAPER_TIMES))
        for stage in result.stages:
            assert 0.0 <= stage.utilization <= 1.0

    def test_underused_stage_has_low_utilization(self):
        result = simulate(1, stages_for([(1.0, 10)]))
        assert result.stages[0].utilization < 1.0

    def test_deterministic_given_seed(self):
        stages = [StageModel("x", 2.0, 3, distribution="exponential")]
        first = simulate(100, stages, seed=5)
        second = simulate(100, stages, seed=5)
        assert first.makespan == second.makespan
        assert simulate(100, stages, seed=6).makespan != first.makespan

    def test_stochastic_modes_run(self):
        stages = [
            StageModel("a", 1.0, 2, distribution="exponential"),
            StageModel("b", 2.0, 3, distribution="lognormal", cv=0.5),
        ]
        result = simulate(200, stages, seed=1)
        assert result.makespan > 0

    def test_sequential_mode_never_faster(self):
        stages = stages_for([(1.6, 2), (12.5, 3), (7.2, 2)])
        pipelined = simulate(100, stages, mode="pipelined")
        sequential = simulate(100, stages, mode="sequential")
        assert sequential.makespan >= pipelined.makespan
        assert sequential.makespan == pytest.approx(
            sum(
                (math.floor(99 / s.workers) + 1) * s.service_time
                for s in stages
            )
        )

    @pytest.mark.parametrize(
        "distribution, want",
        [
            (
                "deterministic",
                [
                    (31999.999999988424, 0.0, 2286.3999999999387, 20000),
                    (250000.0, 1.6, 27789.1, 18353),
                    (143999.9999999835, 14.1, 27796.3, 1),
                ],
            ),
            (
                "lognormal",
                [
                    (31999.999999988424, 0.0, 2286.3999999999387, 20000),
                    (249654.6535920649, 1.6, 27744.614958142894, 18338),
                    (143999.9999999835, 10.952682900325653, 27751.814958142895, 1),
                ],
            ),
        ],
    )
    def test_paper_model_answers_pinned(self, distribution, want):
        # The paper model at 20,000 images, as (busy_time, first_start,
        # last_completion, max_queue) per stage: a change to the engine's
        # code must leave every one of these values as it is.
        cv = 0.3 if distribution == "lognormal" else 0.0
        stages = [
            StageModel("pre", 1.6, 14),
            StageModel("proc", 12.5, 9, distribution=distribution, cv=cv),
            StageModel("post", 7.2, 14),
        ]
        result = simulate(20_000, stages, seed=1)
        assert result.makespan == want[-1][2]
        got = [
            (s.busy_time, s.first_start, s.last_completion, s.max_queue)
            for s in result.stages
        ]
        assert got == want

    def test_conservation_asserted_internally(self):
        # Deterministic stages with exactly representable times: every job
        # is served once per stage, so each stage's busy time is n times its
        # service time, exactly.
        stages = stages_for([(0.5, 3), (1.0, 2)])
        result = simulate(250, stages)
        assert result.n_images == 250
        assert [s.busy_time for s in result.stages] == [250 * s.service_time for s in stages]
        assert result.makespan == job_level_oracle(250, stages)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "x", "service_time": 0.0, "workers": 1},
            {"name": "x", "service_time": 1.0, "workers": 0},
            {"name": "x", "service_time": 1.0, "workers": 1, "distribution": "weird"},
            {"name": "x", "service_time": 1.0, "workers": 1, "cv": -1.0},
            {"name": "x", "service_time": math.nan, "workers": 1},
            {"name": "x", "service_time": math.inf, "workers": 1},
            {"name": "x", "service_time": 1.0, "workers": 1, "cv": math.nan},
            {"name": "x", "service_time": 1.0, "workers": 1, "cv": math.inf},
        ],
    )
    def test_invalid_stage_models(self, kwargs):
        with pytest.raises(InvalidModel):
            StageModel(**kwargs)

    def test_invalid_simulation_inputs(self):
        with pytest.raises(InvalidModel):
            simulate(0, stages_for([(1.0, 1)]))
        with pytest.raises(InvalidModel):
            simulate(1, [])
        with pytest.raises(InvalidModel):
            simulate(1, [StageModel("x", 1.0, None)])


def random_model(rng, integer_times):
    """1-4 stages over all three distributions; integer means make the
    deterministic stages' event times collide."""
    stages = []
    for i in range(rng.randint(1, 4)):
        distribution = rng.choice(("deterministic", "exponential", "lognormal"))
        mean = float(rng.randint(1, 5)) if integer_times else rng.uniform(0.1, 10.0)
        cv = rng.uniform(0.05, 1.5) if distribution == "lognormal" else 0.0
        stages.append(StageModel(f"s{i}", mean, rng.randint(1, 4), distribution, cv))
    return stages


def _run_tandem(n, stages, samplers, start_time):
    """Event-driven run of one tandem over a global event heap, all jobs
    queued at stage 0 at ``start_time``: the oracle of the generator chain.
    Returns (last completion time, per-stage stats) as ``_run_pipeline``
    does. Simultaneous events pop in push order, so an arrival may be
    counted in ``max_queue`` before a completion at the same instant."""
    k = len(stages)
    waiting = [0] * k
    waiting[0] = n
    free = [s.workers for s in stages]
    busy = [0.0] * k
    max_q = [0] * k
    max_q[0] = n
    first_start = [math.inf] * k
    last_completion = [start_time] * k

    heap = []
    seq = 0
    now = start_time
    completed = 0

    def pump():
        nonlocal seq
        for i in range(k):
            while free[i] > 0 and waiting[i] > 0:
                waiting[i] -= 1
                free[i] -= 1
                duration = samplers[i]()
                busy[i] += duration
                if now < first_start[i]:
                    first_start[i] = now
                heappush(heap, (now + duration, seq, i))
                seq += 1

    pump()
    while heap:
        now, _, i = heappop(heap)
        last_completion[i] = now
        free[i] += 1
        if i == k - 1:
            completed += 1
        else:
            waiting[i + 1] += 1
            max_q[i + 1] = max(max_q[i + 1], waiting[i + 1])
        pump()

    assert completed == n, f"conservation violated: {completed} of {n} images left"
    stats = [
        {
            "busy": busy[i],
            "max_queue": max_q[i],
            "first_start": first_start[i] if first_start[i] != math.inf else start_time,
            "last_completion": last_completion[i],
        }
        for i in range(k)
    ]
    return now, stats


def per_stage_samplers(stages, seed):
    return [s.sampler(random.Random(seed * 10 + i)) for i, s in enumerate(stages)]


def assert_same_times(pipeline, tandem):
    (makespan, stats), (oracle_makespan, oracle_stats) = pipeline, tandem
    assert makespan == oracle_makespan
    for got, want in zip(stats, oracle_stats, strict=True):
        for key in ("busy", "first_start", "last_completion"):
            assert got[key] == want[key], key


class TestPipelineAgainstEventLoop:
    """The per-stage generators against the event loop, fed the same draws."""

    @pytest.mark.parametrize("integer_times", [False, True])
    def test_random_models(self, integer_times):
        rng = random.Random(11 + integer_times)
        for seed in range(150):
            stages = random_model(rng, integer_times)
            n = rng.randint(1, 80)
            start = rng.choice((0.0, 3.5))
            pipeline = _run_pipeline(n, stages, per_stage_samplers(stages, seed), start)
            tandem = _run_tandem(n, stages, per_stage_samplers(stages, seed), start)
            assert_same_times(pipeline, tandem)
            queues = [s["max_queue"] for s in pipeline[1]]
            oracle_queues = [s["max_queue"] for s in tandem[1]]
            if integer_times:
                assert all(q <= o for q, o in zip(queues, oracle_queues)), (stages, n)
            else:
                assert queues == oracle_queues, (stages, n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_lognormal_stage_matches_shared_stream(self, seed):
        stages = [
            StageModel("pre", 1.6, 3),
            StageModel("proc", 12.5, 2, distribution="lognormal", cv=0.3),
            StageModel("post", 7.2, 3),
        ]
        rng = random.Random(seed)
        makespan, stats = _run_tandem(500, stages, [s.sampler(rng) for s in stages], 0.0)
        result = simulate(500, stages, seed=seed)
        assert result.makespan == makespan
        for stage, want in zip(result.stages, stats, strict=True):
            assert stage.busy_time == want["busy"]
            assert stage.first_start == want["first_start"]
            assert stage.last_completion == want["last_completion"]
            assert stage.max_queue == want["max_queue"]

    def test_tie_serves_waiting_job_before_counting_arrival(self):
        # Two 2 s servers finish jobs 1-2 at t=2 and jobs 3-4 at t=4; one 1 s
        # server runs job 1 over [2, 3] and job 2 over [3, 4]. At t=4 that
        # server frees as jobs 3 and 4 arrive. The pipeline frees it first:
        # job 3 starts at once and only job 4 waits, so max_queue is 1. The
        # event loop queues both arrivals before the completion and reports 2.
        stages = stages_for([(2.0, 2), (1.0, 1)])
        result = simulate(4, stages)
        assert result.makespan == 6.0
        assert result.stages[1].max_queue == 1
        _, oracle = _run_tandem(4, stages, [s.sampler(random.Random(0)) for s in stages], 0.0)
        assert oracle[1]["max_queue"] == 2

    def test_peak_memory_does_not_grow_with_batch_size(self):
        stages = [
            StageModel("pre", 1.6, 14),
            StageModel("proc", 12.5, 9, distribution="lognormal", cv=0.3),
            StageModel("post", 7.2, 14),
        ]

        def peak(n):
            tracemalloc.start()
            try:
                simulate(n, stages, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(1_000)
        assert peak(100_000) < small + 8 * 1024


class TestMinWorkers:
    def unknown_stages(self):
        return [
            StageModel("pre", 1.6, 14),
            StageModel("proc", 12.5, None),
            StageModel("post", 7.2, 14),
        ]

    def test_trivial_single_image(self):
        stages = [
            StageModel("pre", 1.6, 1),
            StageModel("proc", 12.5, None),
            StageModel("post", 7.2, 1),
        ]
        assert min_workers_for_deadline(1, stages, 21.3) == 1

    def test_deadline_below_latency_infeasible(self):
        with pytest.raises(Infeasible):
            min_workers_for_deadline(1, self.unknown_stages(), 5.0)

    def test_other_stage_bound_infeasible(self):
        stages = [StageModel("pre", 10.0, 1), StageModel("proc", 1.0, None)]
        with pytest.raises(Infeasible):
            min_workers_for_deadline(1000, stages, 200.0)

    def test_requires_exactly_one_unknown(self):
        with pytest.raises(InvalidModel):
            min_workers_for_deadline(10, stages_for(PAPER_TIMES), 100.0)

    def test_small_scale_minimality(self):
        stages = [StageModel("only", 1.0, None)]
        # 100 images in 10 s needs exactly 10 workers; shaving the deadline
        # below 10 s forces 9 one-second waves, i.e. 12 workers.
        assert min_workers_for_deadline(100, stages, 10.0) == 10
        assert min_workers_for_deadline(100, stages, 9.99) == 12

    def test_returned_count_is_minimal_by_simulation(self):
        stages = [
            StageModel("pre", 0.4, 2),
            StageModel("proc", 2.0, None),
            StageModel("post", 0.3, 2),
        ]
        deadline = 160.0
        count = min_workers_for_deadline(500, stages, deadline)
        resolved = stages_for([(0.4, 2), (2.0, count), (0.3, 2)])
        assert simulate(500, resolved).makespan <= deadline
        if count > 1:
            smaller = stages_for([(0.4, 2), (2.0, count - 1), (0.3, 2)])
            assert simulate(500, smaller).makespan > deadline

    def test_stochastic_search(self):
        stages = [StageModel("only", 1.0, None, distribution="exponential")]
        count = min_workers_for_deadline(50, stages, 30.0, seed=3, cap=64)
        assert 1 <= count <= 64


class TestReport:
    def test_bottleneck_identification(self):
        stages = stages_for(PAPER_TIMES)
        assert bottleneck_stage(stages).name == "s1"

    def test_single_stage_is_bottleneck(self):
        stages = stages_for([(3.0, 2)])
        assert bottleneck_stage(stages).name == "s0"

    def test_report_text(self):
        stages = stages_for(PAPER_TIMES)
        result = simulate(100, stages)
        text = format_report(result, stages)
        assert "bottleneck: s1" in text
        assert "days" in text

    def test_json_dict(self):
        result = simulate(10, stages_for([(1.0, 1)]))
        data = result.to_json_dict()
        assert data["images"] == 10
        assert data["makespan_days"] == pytest.approx(data["makespan_s"] / SECONDS_PER_DAY)
