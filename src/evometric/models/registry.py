"""Registry mapping model ids to configuration builders and penalty tables."""

from __future__ import annotations

from numbers import Real

from ..dataspace import PenaltyFunction, VarPenalty
from ..engine import Configuration
from ..errors import PreconditionError, StructuralError
from . import engine_system as eng
from . import three_tanks as tanks

__all__ = ["model_ids", "build_model", "model_penalty", "model_manifest"]


def model_ids() -> list[str]:
    return ["engine", "three-tanks"]


def _numbers(what: str, values: dict) -> dict:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real):
            raise PreconditionError(f"{what} {name!r} must be a number, got {value!r}")
    return values


def _params(cls, params: dict):
    """``cls(**params)``, each name one of its fields and each value a number."""
    known = list(cls.__dataclass_fields__)
    if unknown := [name for name in params if name not in known]:
        raise PreconditionError(f"unknown parameters {unknown}; known: {known}")
    return cls(**_numbers("parameter", params))


def _tanks_params(params: dict) -> tanks.ThreeTanksParams:
    return _params(tanks.ThreeTanksParams, {k: v for k, v in params.items() if k != "init"})


def _engine_args(params: dict):
    params = dict(params)
    attacks = params.pop("attacks", [])
    dual = bool(params.pop("dual", False))
    parsed = tuple(
        a if isinstance(a, eng.AttackConfig)
        else eng.AttackConfig.parse(a) if isinstance(a, str)
        else eng.AttackConfig(**a)
        for a in attacks
    )
    return _params(eng.EngineParams, params), parsed, dual


def build_model(model_id: str, params: dict | None = None, init: dict | None = None) -> Configuration:
    params = dict(params or {})
    _numbers("initial value of", init or {})
    if model_id == "three-tanks":
        return tanks.tanks_configuration(_tanks_params(params), init=init)
    if model_id == "engine":
        ep, attacks, dual = _engine_args(params)
        return eng.engine_system(ep, attacks, dual=dual, init=init)
    raise StructuralError(f"unknown model {model_id!r}; known: {model_ids()}")


def model_penalty(model_id: str, penalty_id: str, params: dict | None = None) -> PenaltyFunction:
    """Resolve a penalty id for a model; 'var:NAME' reads any [0,1] variable."""
    params = dict(params or {})
    if penalty_id.startswith("var:"):
        name = penalty_id.split(":", 1)[1]
        return VarPenalty(name, id=penalty_id)
    if model_id == "three-tanks":
        table = tanks.tanks_penalties(_tanks_params(params))
    elif model_id == "engine":
        _, attacks, dual = _engine_args(params)
        awml = next((a.awml for a in attacks if a.kind == "saw"), 1000)
        table = eng.engine_penalties(dual, awml=awml)
    else:
        raise StructuralError(f"unknown model {model_id!r}; known: {model_ids()}")
    try:
        return table[penalty_id]
    except KeyError:
        raise StructuralError(
            f"unknown penalty {penalty_id!r} for model {model_id!r}; "
            f"known: {sorted(table)} plus 'var:NAME'"
        ) from None


def model_manifest(model_id: str, params: dict | None = None) -> dict:
    params = dict(params or {})
    if model_id == "three-tanks":
        return tanks.tanks_manifest(_tanks_params(params))
    if model_id == "engine":
        ep, _, dual = _engine_args(params)
        return eng.engine_manifest(ep, dual)
    raise StructuralError(f"unknown model {model_id!r}; known: {model_ids()}")
