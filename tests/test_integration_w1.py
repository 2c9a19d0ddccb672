"""End-to-end integration: the §8.3 surge-mitigation scenario on W1.

The ingestion rate surges past FD's capacity; hot-swapping FD's model via
Fries immediately restores end-to-end latency, while the epoch scheduler
first drains the backlog with the old expensive model. (Figure 13 itself
is out of scope — this validates the mechanism behind it.)
"""
import numpy as np

from repro.engine import FriesScheduler, EpochScheduler, Simulator
from repro.workflows import defs


def surge_spec():
    # 4 FD workers × 40/s = 160/s capacity; surge to 400/s at t=10.
    return defs.w1(
        parallelism=4,
        rate=100,
        rate_schedule=[(0.0, 100.0), (10.0, 400.0)],
        n_tuples=14000,
        capacity=2000,
    )


def run(scheduler_cls, t_request):
    sim = Simulator(surge_spec())
    sim.start()
    sim.run(until=t_request)
    sched = scheduler_cls()
    sched.request(sim, {"FD"}, t_request)
    sim.run()
    return sim, sched.result(sim, t_request)


def latency_series(sim):
    arr = np.array([(t, t - c) for t, c, _ in sim.sink_log])
    return arr[arr[:, 0].argsort()]


class TestSurgeMitigation:
    def test_latency_grows_without_reconfig(self):
        sim = Simulator(surge_spec())
        sim.start()
        sim.run()
        lat = latency_series(sim)
        before = lat[lat[:, 0] < 10, 1].mean()
        after = lat[(lat[:, 0] > 25) & (lat[:, 0] < 40), 1].mean()
        assert after > 10 * before  # backlog piles up

    def test_fries_swap_recovers_latency(self):
        sim, res = run(FriesScheduler, 20.0)
        assert res.completed and res.delay < 0.5
        lat = latency_series(sim)
        peak = lat[(lat[:, 0] > 18) & (lat[:, 0] < 22), 1].max()
        late = lat[lat[:, 0] > lat[-1, 0] - 5, 1].mean()
        assert late < peak / 2  # latency came back down after the swap

    def test_fries_recovers_before_epoch(self):
        _, rf = run(FriesScheduler, 20.0)
        _, re_ = run(EpochScheduler, 20.0)
        assert rf.completed and re_.completed
        assert rf.delay < re_.delay / 20

    def test_throughput_rises_after_swap(self):
        sim, _ = run(FriesScheduler, 20.0)
        lat = latency_series(sim)
        t_apply = 20.5
        rate_before = ((lat[:, 0] > 15) & (lat[:, 0] < 20)).sum() / 5.0
        rate_after = ((lat[:, 0] > t_apply) & (lat[:, 0] < t_apply + 5)).sum() / 5.0
        assert rate_after > 1.5 * rate_before  # cheap model drains faster
