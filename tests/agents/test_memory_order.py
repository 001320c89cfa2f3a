"""Every parameter and optimizer moment is C-ordered, and stays so.

A GEMM's rounding depends on its operands' memory order, so a weight
whose order changed on a checkpoint load would make a resumed run
drift from the uninterrupted one.  These tests pin C order after
initialisation, an optimizer step, ``load_state_dict``, ``copy_from``
and ``soft_update_from``, for every learning agent system, with
Fortran-ordered gradients and state dicts as input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.colight import CoLightSystem
from repro.agents.iql import IQLSystem
from repro.agents.ma2c import MA2CSystem
from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem
from repro.nn.module import Parameter
from repro.nn.optim import SGD

from helpers import make_env, single_agent

SYSTEMS = {
    "pairuplight-shared": lambda env: PairUpLightSystem(env, seed=0),
    "pairuplight-per-agent": lambda env: PairUpLightSystem(
        env, PairUpLightConfig(parameter_sharing=False), seed=0
    ),
    "single-agent": single_agent,
    "iql": lambda env: IQLSystem(env, seed=0),
    "ma2c": lambda env: MA2CSystem(env, seed=0),
    "colight": lambda env: CoLightSystem(env, seed=0),
}


def _optimizers(system) -> list:
    if hasattr(system, "_optimizer"):
        return [system._optimizer]
    if hasattr(system, "updaters"):
        return [opt for u in system.updaters.values() for opt in u.optimizers]
    return [system.updater.optimizer]


def _modules(system) -> list:
    modules = list(system._checkpoint_modules().values())
    target = getattr(getattr(system, "updater", None), "target", None)
    return modules + ([target] if target is not None else [])


def _moments(optimizer) -> list[np.ndarray]:
    return [
        slot
        for name in ("_m", "_v", "_sq", "_velocity")
        for slot in getattr(optimizer, name, [])
    ]


def _assert_c_ordered(system, when: str) -> None:
    arrays = [
        (name, p.data)
        for module in _modules(system)
        for name, p in module.named_parameters()
    ] + [
        (f"moment {i}", m)
        for opt in _optimizers(system)
        for i, m in enumerate(_moments(opt))
    ]
    assert arrays
    for name, array in arrays:
        assert array.flags.c_contiguous, f"{name} not C-ordered after {when}"


def _fortran(state: dict) -> dict:
    """The same values, every array stored column-major."""
    return {key: np.array(value, order="F") for key, value in state.items()}


@pytest.fixture(params=sorted(SYSTEMS))
def system_pair(request, tiny_grid):
    factory = SYSTEMS[request.param]
    return (
        factory(make_env(tiny_grid, horizon_ticks=60)),
        factory(make_env(tiny_grid, horizon_ticks=60)),
    )


def test_initialised_c_ordered(system_pair):
    system, _ = system_pair
    _assert_c_ordered(system, "init")
    widths = [
        p.data.shape
        for module in _modules(system)
        for p in module.parameters()
        if p.data.ndim == 2 and p.data.shape[0] < p.data.shape[1]
    ]
    # Orthogonal init builds a wider-than-tall weight as a transposed QR
    # factor, which it must copy into C order; every system has some.
    assert widths


def test_step_keeps_c_order(system_pair):
    system, _ = system_pair
    for optimizer in _optimizers(system):
        for param in optimizer.parameters:
            param.grad = np.asfortranarray(np.full(param.data.shape, 1e-3))
        optimizer.step()
    _assert_c_ordered(system, "step()")


def test_load_state_dict_keeps_c_order(system_pair):
    system, other = system_pair
    system.load_state_dict(_fortran(other.state_dict()))
    for optimizer, source in zip(_optimizers(system), _optimizers(other)):
        optimizer.load_state_dict(_fortran(source.state_dict()))
    _assert_c_ordered(system, "load_state_dict")


def test_copy_and_soft_update_keep_c_order(system_pair):
    system, other = system_pair
    for module, source in zip(_modules(system), _modules(other)):
        module.copy_from(source)
    _assert_c_ordered(system, "copy_from")
    for module, source in zip(_modules(system), _modules(other)):
        module.soft_update_from(source, tau=0.25)
    _assert_c_ordered(system, "soft_update_from")


def test_parameter_rejects_fortran_data():
    with pytest.raises(ValueError, match="C-ordered"):
        Parameter(np.asfortranarray(np.ones((3, 4))))
    # 1-D and 0-d arrays are both C- and F-contiguous.
    Parameter(np.ones(4))
    Parameter(np.float64(2.0))


def test_sgd_velocity_c_ordered():
    param = Parameter(np.ones((3, 5)))
    optimizer = SGD([param], lr=0.1, momentum=0.9)
    param.grad = np.asfortranarray(np.ones((3, 5)))
    optimizer.step()
    assert param.data.flags.c_contiguous
    assert all(v.flags.c_contiguous for v in optimizer._velocity)
