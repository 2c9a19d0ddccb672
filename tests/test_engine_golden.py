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

from repro.engine import (
    CheckpointCoordinator,
    EpochScheduler,
    FriesScheduler,
    MultiVersionScheduler,
    NaiveFCMScheduler,
    SavepointScheduler,
    Simulator,
)

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
        sim.sink_log,
        sorted((name, w.processed) for name, w in sim.workers.items()),
        sim.now,
        sim._evseq,
    )
    return hashlib.sha1(repr(state).encode()).hexdigest()


def chain_run(action: str, seed: int) -> Simulator:
    """Random pipeline ``seed`` with one action at a random time, run to
    the end. ``checkpoint+fries`` starts a checkpoint, requests Fries 1 ms
    later under the ``fries_safe`` policy, and starts a second checkpoint,
    which is deferred until the FCMs are delivered."""
    rng = random.Random(seed)
    spec, names = _random_chain_spec(rng)
    ops = set(rng.sample(names, rng.randint(1, 2)))
    t = rng.uniform(0.05, 0.3)
    sim = Simulator(spec)
    sim.start()
    sim.run(until=t)
    if action == "checkpoint":
        CheckpointCoordinator(sim).start_checkpoint(t)
    elif action == "checkpoint+fries":
        coord = CheckpointCoordinator(sim, policy="fries_safe")
        coord.start_checkpoint(t)
        t += 0.001
        sim.run(until=t)
        coord.on_reconfig_request(t, t + spec.fcm_latency)
        FriesScheduler().request(sim, ops, t)
        coord.start_checkpoint(t)
    else:
        SCHEDULERS[action]().request(sim, ops, t)
    sim.run()
    return sim


def run_of(key: str) -> Simulator:
    action, _, arg = key.rpartition("-")
    if action == "fig7":
        return run_scenario(arg)[0]
    return chain_run(action, int(arg))


CASES = [f"{a}-{s}" for a in ACTIONS for s in range(12)] + ["fig7-naive", "fig7-fries_safe"]

GOLDEN = {
    "fries-0": "79de47b3ebd0424e85c761e0e5cf339c09a25a6b",
    "fries-1": "ceab76deaf2a518c395300ba80c773a4f993a42d",
    "fries-2": "62f7d0a42e2537d5385a9aee978607f2a48370c4",
    "fries-3": "d78daec604806e47efc427bfc849fb8748b598e2",
    "fries-4": "e1514882bf7ff8d4b5383ae574c08d07a9e919cf",
    "fries-5": "93f96068c1e359638755c459d18369fa320b44e6",
    "fries-6": "9a93eddff93270b8e164a58e1edc5e4e2b4bbc4c",
    "fries-7": "cf2afef070dee16f164b360aa5c44c525523efa4",
    "fries-8": "2e2903686f239dae5bcd5e5b8597b0656fc3eb82",
    "fries-9": "597a73452c4387c6a7be283f18f6a061ec865995",
    "fries-10": "f18b367ff1a87526605b438920d3394f0faa2f5e",
    "fries-11": "c3e5daf9cda3510a340d0c23b9f198e8608c5fc4",
    "ebr-0": "e2dde4fffbf26ee18f4bc4f572c59a019756b098",
    "ebr-1": "39ef19780111df0b65985a4ff0ed6b90c83d8bfe",
    "ebr-2": "407be7b0c129fc409387c7d5edc83b8ba3d54d6f",
    "ebr-3": "bbae2211a3f68d4a7537f33509d80188be2716ab",
    "ebr-4": "d3908d316d99ed8f7907ce862f2504d90a89facf",
    "ebr-5": "8e1a72abd78c8668d37169f3885fbc7c68526529",
    "ebr-6": "e0eedd083c721e32cf7c244b5172005219c7d7d8",
    "ebr-7": "8e6928c6d9eb99430ecf00a8b9d07e5b262a9b09",
    "ebr-8": "22574aacd8554a0ec9e47720c138645556587b6c",
    "ebr-9": "3a55dac4fb540ccaac5c81ed4000fbc08bf54ceb",
    "ebr-10": "a022e57873c8096b2226bd78c2f8c67ca91bb2f6",
    "ebr-11": "eca37dbf0c5c79515b27f81008261cd942b397d1",
    "savepoint-0": "ace971ca2ad5eedfefa4c9f6e8a8d5ed567dfdb1",
    "savepoint-1": "c068463b3bb9b6d94f783ce24042aa296cddf8a1",
    "savepoint-2": "0753887cb848765adce0e13ff1871875c9816c27",
    "savepoint-3": "09d9dabf51b0358190e907b7147aae26c6ce8e80",
    "savepoint-4": "63dfbafa9e852b320c06001044bc0e999b351089",
    "savepoint-5": "1e6e01e24535204a84d0438447f44388ba6e1c8f",
    "savepoint-6": "0cf79d0e8e4c7d241f7e5c0dc4904fc0a75d21f0",
    "savepoint-7": "125a29a51c88bc1df98547938ef8cbb728338e12",
    "savepoint-8": "dc7c5128f944b71da7ec82c3adbf50bc296366f0",
    "savepoint-9": "4635a994b54f91bc3c2f7e46374b6422d20e5677",
    "savepoint-10": "b06f9cd91e3d01a9b7beb3fb4e03fd61b12682ac",
    "savepoint-11": "f111add9aa0224a3ab84b585a9cf40f92705a84a",
    "multiversion-0": "bb435163313771a77cb6b36e11d9968f5f0c1ccf",
    "multiversion-1": "ef4e8b2db24dc912caf90ae1133c2b41498d72c8",
    "multiversion-2": "55c92e64ba18cd757d3addfbf5f6f35c23a407e1",
    "multiversion-3": "2bbc4026f10a6e82d17ba7bb9cf1d2e38fdff4e2",
    "multiversion-4": "c6f1af6fbe6f075130b20d3aa234b6670b4f1273",
    "multiversion-5": "59c68ffb47ccef27d6bf25322d4d88799d66d048",
    "multiversion-6": "a4a31fde43cc8351c2681c7350604782bc7f0308",
    "multiversion-7": "ecea0536af744dece3cc45c7335e2ccdd5769b6c",
    "multiversion-8": "75f49a82457530ade8fd953829dc50cd3d075985",
    "multiversion-9": "f6cf4bacc165673e2b090e7cee9344adb7df61b2",
    "multiversion-10": "9a7119348d22062c60c7d2f10dbd1e36370b81d8",
    "multiversion-11": "de845bd77beff508ed696340b16c97cbc1f4eaaf",
    "naive-0": "a81adec538fc2a0cb814c4351f37aeeb339d4521",
    "naive-1": "a93649491da966214882a81845cceb7ee1c21917",
    "naive-2": "5732140c109f01065316cd9b9fe104b5db42897f",
    "naive-3": "fa9baa903259fe81b03d3327955cd285ebc77a65",
    "naive-4": "b27cd020b89b3fd09a6c828ac5d3e2ea82535004",
    "naive-5": "83f2ed39ad6e168a1681c66b98b130eda94bec76",
    "naive-6": "9cb10814bdc1e55541b05b14ffaedec9505b8392",
    "naive-7": "cf2afef070dee16f164b360aa5c44c525523efa4",
    "naive-8": "2797c0be8954ef0355927ba1b29dccd0ccf04734",
    "naive-9": "8d47e8b062aa3960a0ae9587e761437b0c7c7943",
    "naive-10": "62d4bfc0a0d22186ab9b123ed723b647782cbefe",
    "naive-11": "3d8717611683c208aca62219d03590442dc723d7",
    "checkpoint-0": "3ee0ba2b865f2b86fef9544875b9d8bf80767033",
    "checkpoint-1": "46f1b2995e066bc38a0c72874fa65b120d48590f",
    "checkpoint-2": "9e5588064e48c5e06ad6ea714e7036521529315c",
    "checkpoint-3": "7ec9ca26a7cc5728193628e1342e99800ff3e653",
    "checkpoint-4": "d4461d6d77314ffb6ca1bd8e389a1fb076991838",
    "checkpoint-5": "8353c9dbc46144b28f5dac6fbb2cf1ceaad50e93",
    "checkpoint-6": "5595c5432a7c20dda41134416f6f291ea8cfd8a0",
    "checkpoint-7": "bb9e4701fcda86bac433a34b10724b69c57c325d",
    "checkpoint-8": "4fe1c56ab3d9cc41a2e7a8c5ec31dbdf0204282b",
    "checkpoint-9": "ce3ae0af4bbc4ea618646b6e8a23379780b59556",
    "checkpoint-10": "e46b3cc3fadb2e296c0bcf0cdff28c383b01313d",
    "checkpoint-11": "3b61a3af265fdf5721ff9282585ff8fef3e72f67",
    "checkpoint+fries-0": "3e8a8c051e7acb56782673f7bfb167e1ba8c62d0",
    "checkpoint+fries-1": "03f090c80cb164fde05b5f2ec12611846fbcb641",
    "checkpoint+fries-2": "30e805a9054583994ee85dda7a6f11b5d261b189",
    "checkpoint+fries-3": "9e3625bd4eebc6c78a0f01b50f7ff8f20b58ed24",
    "checkpoint+fries-4": "2ab2874e405b3ec1c3ae3b0b98031ab12aa26c73",
    "checkpoint+fries-5": "1486bf8912c5fa876ee19760fb830bab5daf8149",
    "checkpoint+fries-6": "192224cca8ede524ffc4c9799fb7b5e5085b17f4",
    "checkpoint+fries-7": "689c1658c81f8852bd4abe69aab956ebd2464469",
    "checkpoint+fries-8": "2a31cc0346a3d22fce8d63c0dc63ab1a47cd15a5",
    "checkpoint+fries-9": "0c7cc06776cb691ea2265b1d45b9e9c11fb1c180",
    "checkpoint+fries-10": "4201001d04f60ffa13e643e4be9660fbd1a80581",
    "checkpoint+fries-11": "b2ebc832a1c6e8596b02316513bd63e0a76ceb55",
    "fig7-naive": "7976421b152c7c860c0053bfb0b1ba255175f218",
    "fig7-fries_safe": "7976421b152c7c860c0053bfb0b1ba255175f218",
}


@pytest.mark.parametrize("key", CASES)
def test_golden_fingerprint(key):
    assert fingerprint(run_of(key)) == GOLDEN[key]


if __name__ == "__main__":
    for key in CASES:
        print(f'    "{key}": "{fingerprint(run_of(key))}",')
