"""Golden run fingerprints: a refactor of the engine must leave every run
below byte-identical — the same applies, operation log, snapshots, sink
arrivals, per-worker counts, end time and number of events.

If a change alters a run on purpose, print the new values with
``PYTHONPATH=src python -m tests.test_engine_golden`` and say which
entries moved and why.
"""
import hashlib
import random

import pytest

from repro.core.dag import DAG
from repro.engine import (
    CheckpointCoordinator,
    EpochMarker,
    EpochScheduler,
    FriesScheduler,
    KeyDist,
    MultiVersionScheduler,
    NaiveFCMScheduler,
    OpSpec,
    SavepointScheduler,
    Simulator,
    WorkflowSpec,
)
from repro.engine.channel import COMPACT_AT
from repro.engine.schedulers import request_and_run
from repro.engine.workload import EdgeSpec
from repro.experiments import run_delay
from repro.workflows import defs

from .test_engine_schedulers import _random_chain_spec
from .test_faults import run_scenario

SCHEDULERS = {
    "fries": FriesScheduler,
    "ebr": EpochScheduler,
    "savepoint": SavepointScheduler,
    "multiversion": MultiVersionScheduler,
    "naive": NaiveFCMScheduler,
}
ACTIONS = (*SCHEDULERS, "checkpoint", "checkpoint+fries")


def fingerprint(sim: Simulator) -> str:
    state = (
        sorted(sim.apply_times.items()),
        list(sim.op_log),
        sorted(sim.snapshots.items()),
        list(sim.sink_log),
        sorted((name, w.processed) for name, w in sim.workers.items()),
        sim.now,
        sim._evseq,
    )
    return hashlib.sha1(repr(state).encode()).hexdigest()


def warmed_chain(seed: int, cls: type[Simulator] = Simulator) -> tuple[Simulator, set[str], float]:
    """Random pipeline ``seed`` run by ``cls`` up to its request time
    ``t``, with the operators ``ops`` that its action reconfigures."""
    rng = random.Random(seed)
    spec, names = _random_chain_spec(rng)
    ops = set(rng.sample(names, rng.randint(1, 2)))
    t = rng.uniform(0.05, 0.3)
    sim = cls(spec)
    sim.start()
    sim.run(until=t)
    return sim, ops, t


def finish_chain(sim: Simulator, action: str, ops: set[str], t: float) -> Simulator:
    """Take ``action`` at ``t`` and run to the end. ``checkpoint+fries``
    starts a checkpoint, requests Fries 1 ms later under the ``fries_safe``
    policy, and starts a second checkpoint, which is deferred until the
    FCMs are delivered."""
    if action == "checkpoint":
        CheckpointCoordinator(sim).start_checkpoint(t)
    elif action == "checkpoint+fries":
        coord = CheckpointCoordinator(sim, policy="fries_safe")
        coord.start_checkpoint(t)
        t += 0.001
        sim.run(until=t)
        coord.on_reconfig_request(t, t + sim.spec.fcm_latency)
        FriesScheduler().request(sim, ops, t)
        coord.start_checkpoint(t)
    else:
        SCHEDULERS[action]().request(sim, ops, t)
    sim.run()
    return sim


def chain_run(action: str, seed: int) -> Simulator:
    """Random pipeline ``seed`` with one action at a random time, run to
    the end."""
    sim, ops, t = warmed_chain(seed)
    return finish_chain(sim, action, ops, t)


def run_of(key: str) -> Simulator:
    action, _, arg = key.rpartition("-")
    if action == "fig7":
        return run_scenario(arg)[0]
    return chain_run(action, int(arg))


CASES = [f"{a}-{s}" for a in ACTIONS for s in range(12)] + ["fig7-naive", "fig7-fries_safe"]

GOLDEN = {
    "fries-0": "af2c78f116e3f7e6d643913d518a4c9228deb5db",
    "fries-1": "ac175497fe3585979fcbf13936b3a6ef9a1cd80b",
    "fries-2": "41f6a2a7dcbea6774232b14f99a74849bb7dd4ba",
    "fries-3": "8f19b87260aff24236b6f7ea32d278af4ed6f3fa",
    "fries-4": "ef8974eb5bded1fe40cb98ab7925d17ddf0eb7c0",
    "fries-5": "d859be909a3aecc2cad985a3bf78c7725ce10362",
    "fries-6": "5fbd7533e690349a3504c2c66d5df41307f2ff9d",
    "fries-7": "4a605f0806ff173f7b34278979d6cc0286ba58ae",
    "fries-8": "ecaa2c53196fe9572d78b1aa81b1813add128981",
    "fries-9": "1d0cef8e211f833efa57c34edbee78cf2e649db3",
    "fries-10": "31ebb000fce62370cb0866258f7d61b1c5a94d16",
    "fries-11": "f52af4ab5dd1de262f22cd6d569577e817d0698b",
    "ebr-0": "41e949675693e7d4f8c4195de0fd48736ce7eaea",
    "ebr-1": "6df3c6e5c5ce472214fb0e115675bfcb10988e7f",
    "ebr-2": "e870e938111058f281ad497f73988607760a9463",
    "ebr-3": "877b4279d8fe48273e64a02d1281d789c0a42391",
    "ebr-4": "e9cf7d3e405a071d75400e160d90da4815c2b067",
    "ebr-5": "b382ac9a242aad599a43b55e5b003a5628cc869c",
    "ebr-6": "134f8535ef1a80ea0556c00b1c052151640c0aa1",
    "ebr-7": "63deb8a262567ab0a01e9d881666e5914a35df54",
    "ebr-8": "b02868a911e46cdae6edc4b87bbf446bf1706175",
    "ebr-9": "54df8bc45bd37f26c4429e817dd2c6082ab93b38",
    "ebr-10": "6f077062d169fe19b78655ebbe6d33bd07aeeb1a",
    "ebr-11": "c46709e8c6cbfb472509ec5f7e094c972dbb0011",
    "savepoint-0": "c90930a470dc515c09191ff567408600243b5ae3",
    "savepoint-1": "21c363fa864ce4fa8aa0ef9ed1b260777147c36f",
    "savepoint-2": "93c305883d725115d703765c120169c083a65b44",
    "savepoint-3": "01d38ace909630fc6ce262645b20adf20d8a75b1",
    "savepoint-4": "b61be94e8b8fac533b96f8da72d681ab4ab7e10c",
    "savepoint-5": "6fc87e7020e169cb34c8a5cf1cba56ab81ec8c21",
    "savepoint-6": "9f962b293db7817d997f56f1f61c3abbe4db8aa9",
    "savepoint-7": "381258f510671f959c36f208cf300cb627ea9a5e",
    "savepoint-8": "a0e3edf28a899d4bf8051d6e2b9163c7e17fa478",
    "savepoint-9": "f146e0b256f3c6801bdb759ce0074972900eac31",
    "savepoint-10": "1404a4ecc9d2c1a4536bfb0044db2334bf263dbe",
    "savepoint-11": "73154e4331a71e2aea4858a8d438842434ad302f",
    "multiversion-0": "5eb768570475424500f3a5e9d8e3cb3051f1efd7",
    "multiversion-1": "b43086eb19a29e7c5183e368244d1608e9e7c267",
    "multiversion-2": "47ed4971f1302c82801a0da864d42c50ecd16f1d",
    "multiversion-3": "a0b5e2f201db6e9b620c95f24941537a6f74d71a",
    "multiversion-4": "6a43cf8b07f1d111d532c1832111a72aaf71aec7",
    "multiversion-5": "17778d8e8d0a73be7b81a6eab3576ea849e77824",
    "multiversion-6": "9e7e41eac3e5ddb30b5b7f3358d5ddc3b6efe841",
    "multiversion-7": "7e3de348f71c5eae8bdf9ad75b51c700dfb6c540",
    "multiversion-8": "5efaa195d54a0abc6334688625022970949ae8fb",
    "multiversion-9": "5a47977292c0a2be62c47baa782a16fc78cc0ca3",
    "multiversion-10": "235066bd66c3d8fbaad3c9316bc9e9a573d82273",
    "multiversion-11": "5fbd67edbabaddabb4ecbef71af3466f531f92eb",
    "naive-0": "83368761ba400a14cfaf9fc36dc1243da79ae58b",
    "naive-1": "9fb6fb56eb116497edfe8c8ee5e6bd6111453b6c",
    "naive-2": "84af3e382b1418d828b0c29319aba160a8388a08",
    "naive-3": "e1336234e9c52c0fbb4b827777dceaf86111fd3e",
    "naive-4": "2497a0795391ca414c81f83562b28180452942f1",
    "naive-5": "531456877d245a8d3313af8eeb524fa6d0f52a70",
    "naive-6": "8edc372798c04c367268565ddf6ca88f4c72b0de",
    "naive-7": "4a605f0806ff173f7b34278979d6cc0286ba58ae",
    "naive-8": "bf60dab4586f54918ce042ebf0bb5ae352038285",
    "naive-9": "81f9b6763621306474c56ccfebdef67a75671693",
    "naive-10": "198666d0f962ebac37a70477db18d06545b1f6eb",
    "naive-11": "df668f7bc1a77f3dd42e973a7a83d4eb966e52c2",
    "checkpoint-0": "3dcad6c804c1eb8b6a10e33bb672106aac2105d4",
    "checkpoint-1": "b6515c2d98928c80ccccb0b93c6966243f6ad150",
    "checkpoint-2": "cc9d39b19638290b9b45805fd4b07181eb114225",
    "checkpoint-3": "8295c9138646eba2fef8387479aadd1156b0f70c",
    "checkpoint-4": "12199fea9e314a8e58dfdbf3e285a683bf1c6823",
    "checkpoint-5": "ce390efde7fe0740aa3ace29e53eb75ba32545a2",
    "checkpoint-6": "793f497cc8f3847ce919b4868eeeb0980c4d880d",
    "checkpoint-7": "9151f72c829f905743042d693de9317b5b710d8c",
    "checkpoint-8": "a19098753fd33713d681c6878b71913a83e02cfc",
    "checkpoint-9": "84ae8a0673bdd879b6cd1ef1c3d9a686a6d6b0da",
    "checkpoint-10": "4338ecdd46fe73cf79d2530c61ee35280b2b6bc7",
    "checkpoint-11": "a38bcdfd5c30bd24381935ae6a471ac0fa00be10",
    "checkpoint+fries-0": "0ec4eda1b5576e06cad1eacc09deb70f2c242c90",
    "checkpoint+fries-1": "060ab5b974517799343710fd0271b368f5f5d9d3",
    "checkpoint+fries-2": "8fa62e86c2dc6b362bd1e03eba64ff7393a1c9c5",
    "checkpoint+fries-3": "beff7c003a608608759662fe97c54d3c2422de37",
    "checkpoint+fries-4": "f40e3593d54fce80eac6f89908c1d93449ccf8ad",
    "checkpoint+fries-5": "677ffaf6bdb621df4e5e869e62d973ff6d284c53",
    "checkpoint+fries-6": "415051f7d93a3545f6f7743ebbcef79b05e365d2",
    "checkpoint+fries-7": "843c8790368677686da5577aa73c52bcd7eebbbf",
    "checkpoint+fries-8": "c55cf832108a4e4d5cbe712234634c76e44b9cdd",
    "checkpoint+fries-9": "cc3d9a284cef078e70f4a6d7de02be6998d36291",
    "checkpoint+fries-10": "aebddb603e7f95def950353947d2409206261040",
    "checkpoint+fries-11": "aa55f64d39535810e9d7cb4a23b4b9fa4167a1cc",
    "fig7-naive": "3b9750bdc03a3d52a3ffea7a4ac529f9d8dfb5e2",
    "fig7-fries_safe": "3b9750bdc03a3d52a3ffea7a4ac529f9d8dfb5e2",
}


@pytest.mark.parametrize("key", CASES)
def test_golden_fingerprint(key):
    assert fingerprint(run_of(key)) == GOLDEN[key]


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("seed", [0, 7])
def test_fork_of_warmed_run_is_golden(action, seed):
    """A fork of a simulator warmed up to its request time runs the golden
    run, and so does the original after it: the two share no state. An
    empty channel holds the shared empty tuple, in the fork too."""
    sim, ops, t = warmed_chain(seed)
    fork = sim.fork()
    assert any(type(ch.msgs) is type(ch.ts) is type(ch.seqs) is tuple for ch in fork.channels)
    assert fingerprint(finish_chain(sim, action, ops, t)) == GOLDEN[f"{action}-{seed}"]
    assert fingerprint(finish_chain(fork, action, ops, t)) == GOLDEN[f"{action}-{seed}"]


def backlogged_run() -> Simulator:
    """src → A → B → sink: 3 000 tuples sent in 0.3 s into a channel of
    capacity 3 000 that A drains at 1 000 per second, and an EBR request
    at 0.2 s whose marker queues behind about 2 000 of them."""
    dag = DAG.from_edges([("src", "A"), ("A", "B"), ("B", "sink")])
    ops = {
        "src": OpSpec("src", kind="source", rate=10_000, n_tuples=3_000,
                      key_dist=KeyDist.uniform(10)),
        "A": OpSpec("A", kind="map", cost={1: 0.001}),
        "B": OpSpec("B", kind="map", cost={1: 0.0001}),
        "sink": OpSpec("sink", kind="sink"),
    }
    edges = {("src", "A"): EdgeSpec("hash", capacity=3_000)}
    sim = Simulator(WorkflowSpec(dag=dag, ops=ops, edges=edges))
    sim.start()
    sim.run(until=0.2)
    EpochScheduler().request(sim, {"B"}, 0.2)
    return sim


# The run of ``backlogged_run`` with a (t, seq, msg) deque per channel,
# which never compacts.
BACKLOGGED_GOLDEN = "74a072428d0b63e77155cf993eac83dbd27d53ff"


def test_fork_across_compaction_is_golden():
    """The channel src → A stays non-empty for about 2 500 pops, so it
    deletes its popped prefix (``COMPACT_AT``) while the marker is still
    queued; each pop has already let go of its message. A fork taken
    before the first compaction and one taken after it both finish the
    golden run, and so does the original."""
    sim = backlogged_run()
    ch = sim.channels[0]
    sim.run(until=1.0)
    sent = sim.workers["src#0"].processed + 1  # every tuple, and the marker
    assert sent == 3_001
    assert len(ch.msgs) == sent and 0 < ch.head < COMPACT_AT  # nothing deleted yet
    assert not any(ch.msgs[:ch.head])  # but every popped message let go of
    before = sim.fork()
    sim.run(until=1.8)
    assert 0 < len(ch.msgs) < sent and ch.markers_in_flight == 0  # compacted
    assert EpochMarker in map(type, ch.msgs[ch.head:])
    after = sim.fork()
    assert len(after.channels[0].msgs) == len(ch.msgs) - ch.head  # only the unpopped part
    for run in (before, after, sim):
        run.run()
        assert fingerprint(run) == BACKLOGGED_GOLDEN


def test_fork_of_warmed_run_is_golden_at_p40():
    """W2 at the paper's p=40 (6 440 channels), warmed 2 s, forks at the
    default recursion limit, and a request on the fork has the delay of a
    fresh run. A copy that follows worker → channel → worker links
    recurses once per hop and overflows here."""
    build = lambda: defs.w2(parallelism=40)  # noqa: E731
    sim = Simulator(build(), record="none")
    sim.start()
    sim.run(until=2.0)
    for make, ops in ((FriesScheduler, {"J1"}), (EpochScheduler, {"J1", "J4"})):
        r = request_and_run(sim.fork(), make(), ops, t_request=2.0, t_end=60.0)
        assert r.completed
        assert r.delay * 1000.0 == run_delay(build, make(), ops, warmup=2.0, t_max=60.0)


if __name__ == "__main__":
    for key in CASES:
        print(f'    "{key}": "{fingerprint(run_of(key))}",')
