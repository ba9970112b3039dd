"""Golden outputs of the discrete-event simulator, and its layering.

``tests/data/des_golden.json`` pins every ``SimulationResult`` field
(floats via ``float.hex``) for the cells the fastpath equivalence
harness cannot check: PHF's ``steal`` and ``ba_prime`` phase 1 under
both ``keep`` policies (with and without ``ba_prime`` peel rounds), BA′,
and recorded event streams of all four algorithms.  The fixture was written by the separate per-algorithm
simulators this DES replaced; the DES must reproduce it bit for bit.

Regenerate (only ever from a tree whose outputs are trusted) with::

    PYTHONPATH=src python tests/test_des.py
"""

import dataclasses
import json
import os
import subprocess
import sys
from functools import partial

import pytest

import repro
from repro.core.problem import BisectableProblem
from repro.problems import FixedAlpha, SyntheticProblem, UniformAlpha
from repro.simulator import (
    LinearCost,
    MachineConfig,
    MachineEvent,
    RingTopology,
    simulate_ba,
    simulate_ba_prime,
    simulate_bahf,
    simulate_hf,
    simulate_phf,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "des_golden.json")
N_VALUES = (1, 2, 5, 16, 64)

#: unit costs, events recorded
EVENTS = MachineConfig(record_events=True)
#: priced acquires/lookups, hop-priced sends, linear collectives
PRICED = MachineConfig(
    t_bisect=0.75,
    t_send=1.25,
    t_acquire=0.5,
    t_hop=0.25,
    topology=RingTopology,
    collective_model=LinearCost(scale=0.5, latency=1.0),
    record_events=True,
)
CONFIGS = {"events": EVENTS, "priced": PRICED}


def problem(n):
    return SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=1000 + n)


def skewed(n):
    """Always-0.1 splits: BA′ leaves exceed PHF's threshold (peel rounds)."""
    return SyntheticProblem(1.0, FixedAlpha(0.1), seed=1000 + n)


def _phf(make, n, config, phase1, keep):
    return simulate_phf(
        make(n), n, config=config, phase1=phase1, keep=keep, steal_seed=n
    )


def cases():
    """``name -> thunk`` for every pinned cell."""
    out = {}
    for cname, cfg in CONFIGS.items():
        for n in N_VALUES:
            tag = f"{cname}-n{n}"
            out[f"hf-{tag}"] = partial(simulate_hf, problem(n), n, config=cfg)
            out[f"ba-{tag}"] = partial(simulate_ba, problem(n), n, config=cfg)
            out[f"ba_prime-{tag}"] = partial(
                simulate_ba_prime, problem(n), n, 2.0 / n, config=cfg
            )
            out[f"bahf-{tag}"] = partial(
                simulate_bahf, problem(n), n, lam=0.5, config=cfg
            )
            for phase1 in ("central", "steal", "ba_prime"):
                for keep in ("heavy", "light"):
                    out[f"phf-{phase1}-{keep}-{tag}"] = partial(
                        _phf, problem, n, cfg, phase1, keep
                    )
                    if cfg is PRICED and phase1 != "central":
                        out[f"phf-{phase1}-{keep}-skewed-{tag}"] = partial(
                            _phf, skewed, n, cfg, phase1, keep
                        )
    return out


def encode(value):
    """JSON form of a result: floats as ``float.hex``, pieces as weights."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, BisectableProblem):
        return float(value.weight).hex()
    if isinstance(value, MachineEvent):  # positional: the streams are long
        return [encode(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if dataclasses.is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(_golden()) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_reproduces_golden(name):
    assert encode(cases()[name]()) == _golden()[name]


def test_loading_the_simulator_leaves_resilience_unloaded():
    # The fault layer imports the simulator, never the reverse: the DES
    # takes its fault plan and recovery policy duck-typed.
    code = "import sys, repro.simulator; print('repro.resilience' in sys.modules)"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


if __name__ == "__main__":
    golden = {name: encode(run()) for name, run in sorted(cases().items())}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(
            ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                for k, v in golden.items()
            )
        )
        fh.write("\n}\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
