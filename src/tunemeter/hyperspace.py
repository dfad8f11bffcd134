"""Mixed-type hyperparameter search spaces with conditional parameters.

A space is an ordered list of parameter definitions: continuous or integer
ranges on an untransformed sampling scale, discrete level sets, or logicals.
Values are kept on the sampling scale everywhere; transformation functions
(pow2, dataset-size scalings) are applied only when a learner is evaluated
or a report is rendered. A parameter may be conditional on one unconditional
parent taking a value from an activating set; inactive parameters carry a
canonical placeholder value and an ``active=False`` flag.

Candidates are built column by column into one private block: per
parameter a value column and an activity column. `sample_configurations`
and `grid_configurations` turn each row into a plain `Configuration`.
`tunability.minimize` keeps the block and builds no object per candidate:
it moves one row view through the block, whose keys come from one pass
over the columns, and encodes the block of its distinct rows, taken from
the columns by fancy indexing. The encoder reads blocks only; it turns a
list of plain configurations into one first.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, Optional, Sequence

import numpy as np

KINDS = ("numeric", "integer", "discrete", "logical")
TRAFOS = ("identity", "pow2", "scale_by_p_ceil", "pow_n_round")
LOGICAL_LEVELS = ("true", "false")

BUNDLED_ALGORITHMS = ("glmnet", "rpart", "kknn", "svm", "ranger", "xgboost")


class SpaceError(ValueError):
    """Raised for malformed space definitions or configurations."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Condition:
    """Activation rule: the parameter is active iff parent's value is in `values`."""

    parent: str
    values: tuple[str, ...]

    def activates(self, parent_value: Any) -> bool:
        return parent_value in self.values


@dataclass(frozen=True)
class ParamDef:
    """One hyperparameter: kind, bounds or levels, trafo, optional condition.

    Bounds apply to numeric/integer kinds and live on the untransformed
    sampling scale. ``levels`` applies to discrete/logical kinds.
    """

    name: str
    kind: str
    lower: Optional[float] = None
    upper: Optional[float] = None
    levels: Optional[tuple[str, ...]] = None
    trafo: str = "identity"
    condition: Optional[Condition] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpaceError(f"parameter {self.name!r}: unknown kind {self.kind!r}")
        if self.trafo not in TRAFOS:
            raise SpaceError(f"parameter {self.name!r}: unknown trafo {self.trafo!r}")
        if self.kind in ("numeric", "integer"):
            if self.lower is None or self.upper is None:
                raise SpaceError(f"parameter {self.name!r}: bounds required")
            if self.lower > self.upper:
                raise SpaceError(
                    f"parameter {self.name!r}: lower {self.lower} > upper {self.upper}"
                )
            if self.levels is not None:
                raise SpaceError(f"parameter {self.name!r}: levels not allowed for {self.kind}")
        else:
            if self.trafo != "identity":
                raise SpaceError(f"parameter {self.name!r}: trafo on {self.kind} parameter")
            if self.lower is not None or self.upper is not None:
                raise SpaceError(f"parameter {self.name!r}: bounds not allowed for {self.kind}")
            if self.kind == "logical":
                lv = self.levels if self.levels is not None else LOGICAL_LEVELS
                if tuple(lv) != LOGICAL_LEVELS:
                    raise SpaceError(
                        f"parameter {self.name!r}: logical levels must be {LOGICAL_LEVELS}"
                    )
                object.__setattr__(self, "levels", LOGICAL_LEVELS)
            else:
                if not self.levels:
                    raise SpaceError(f"parameter {self.name!r}: discrete needs non-empty levels")
                if len(set(self.levels)) != len(self.levels):
                    raise SpaceError(f"parameter {self.name!r}: duplicate levels")

    @property
    def is_conditional(self) -> bool:
        return self.condition is not None

    def placeholder(self) -> Any:
        """Canonical value carried while the parameter is inactive.

        It doubles as the imputation value for surrogate encoding: the
        midpoint of the bounds (rounded half-up for integer kinds) or the
        first declared level.
        """
        if self.kind == "numeric":
            return (self.lower + self.upper) / 2.0
        if self.kind == "integer":
            return _round_half_up((self.lower + self.upper) / 2.0)
        return self.levels[0]

    def contains(self, value: Any) -> bool:
        if self.kind in ("numeric", "integer"):
            return not _not_a(self, value) and self.lower <= value <= self.upper
        return value in self.levels


# the types a numeric or an integer parameter holds, and what a value of another type is not
_NUMBER_TYPES = {"numeric": ((int, float, np.integer, np.floating), "a number"),
                 "integer": ((int, np.integer), "an integer")}


def _not_a(p: ParamDef, value: Any) -> str:
    """What `value` is not when numeric or integer `p` cannot hold it at any size, else "".

    Python and numpy ints count for both kinds, floats for numeric only;
    ``bool`` and ``np.bool_`` for neither. Other kinds hold any type.
    """
    if p.kind not in _NUMBER_TYPES:
        return ""
    types, what = _NUMBER_TYPES[p.kind]
    return what if isinstance(value, bool) or not isinstance(value, types) else ""


@dataclass(frozen=True)
class SearchSpace:
    """Validated, immutable search space for one algorithm."""

    algorithm: str
    params: tuple[ParamDef, ...]

    def __post_init__(self):
        if not self.params:
            raise SpaceError("empty space")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpaceError(f"duplicate parameter names: {', '.join(dupes)}")
        by_name = {p.name: p for p in self.params}
        for p in self.params:
            cond = p.condition
            if cond is None:
                continue
            if cond.parent == p.name:
                raise SpaceError(f"parameter {p.name!r}: condition on itself")
            parent = by_name.get(cond.parent)
            if parent is None:
                raise SpaceError(f"parameter {p.name!r}: dangling condition parent {cond.parent!r}")
            if parent.is_conditional:
                raise SpaceError(
                    f"parameter {p.name!r}: parent {cond.parent!r} is itself conditional "
                    "(chained conditions are not supported)"
                )
            if parent.kind not in ("discrete", "logical"):
                raise SpaceError(f"parameter {p.name!r}: parent {cond.parent!r} must be discrete")
            if not cond.values:
                raise SpaceError(f"parameter {p.name!r}: empty activating set")
            unknown = [v for v in cond.values if v not in parent.levels]
            if unknown:
                raise SpaceError(
                    f"parameter {p.name!r}: activating values {unknown} not levels of "
                    f"{cond.parent!r}"
                )

    def __getitem__(self, name: str) -> ParamDef:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def draw_order(self) -> tuple[ParamDef, ...]:
        """Parameters with parents after all unconditional ones, both in declaration order."""
        roots = [p for p in self.params if not p.is_conditional]
        children = [p for p in self.params if p.is_conditional]
        return tuple(roots + children)


@dataclass(frozen=True)
class DatasetInfo:
    """Size facts about one dataset: n observations, p features."""

    id: str
    n: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError(f"dataset {self.id!r}: n and p must be >= 1")


@dataclass(slots=True)
class Configuration:
    """A point in a search space on the untransformed scale.

    ``values`` has an entry for every parameter of the owning space;
    inactive parameters keep their placeholder value with ``active`` False.
    """

    values: dict[str, Any]
    active: dict[str, bool]

    def key(self, space: SearchSpace) -> tuple:
        """Hashable identity: active values in space order, None when inactive."""
        return self._key(space)

    def _key(self, space: SearchSpace) -> tuple:
        return tuple(
            self.values[p.name] if self.active.get(p.name, False) else None
            for p in space.params
        )


class _Row(Configuration):
    """A view of row ``_row`` of a candidate block: a key with no dicts.

    `_Block.cursor` makes one per search, and the search moves it from row
    to row by storing ``_row``, so no object is built per candidate. Since
    `Configuration` has slots too, the view has no instance dict.
    """

    __slots__ = ("_block", "_row")

    def _key(self, space: SearchSpace) -> tuple:
        return self._block.keys[self._row]


class _Block:
    """Candidates as columns: what `_build_block` draws and what the encoder reads.

    ``values[name]`` holds every row's value of a parameter: float or int
    arrays for drawn numbers, object arrays for levels and pinned values, so
    that ``item`` gives back the exact value a dict holds. ``active``
    holds the matching flags. A search keys the rows through one `cursor`
    and encodes the block that `take` cuts from its distinct rows; only
    `row` builds a `Configuration`.
    """

    def __init__(self, space: SearchSpace, values: dict[str, np.ndarray],
                 active: dict[str, np.ndarray], n: int):
        self.space, self.values, self.active, self.n = space, values, active, n

    @classmethod
    def of(cls, space: SearchSpace, configs: Sequence[Configuration]) -> _Block:
        """Plain configurations as columns, one per parameter of `space`.

        A missing flag reads as inactive; an inactive cell holds the placeholder.
        """
        values, active = {}, {}
        for p in space.params:
            flags = [bool(c.active.get(p.name, False)) for c in configs]
            fill = p.placeholder()
            col = np.empty(len(configs), dtype=object)
            col[:] = [c.values[p.name] if on else fill for c, on in zip(configs, flags)]
            values[p.name], active[p.name] = col, np.array(flags, dtype=bool)
        return cls(space, values, active, len(configs))

    def __len__(self) -> int:
        return self.n

    def take(self, index: np.ndarray) -> _Block:
        """Rows `index` of the block, in that order, as a block of their own."""
        return _Block(self.space, {name: col[index] for name, col in self.values.items()},
                      {name: on[index] for name, on in self.active.items()}, index.size)

    @functools.cached_property
    def keys(self) -> list[tuple]:
        """Every row's `Configuration.key` in the block's space, from one pass over the columns."""
        columns = []
        for p in self.space.params:
            col, on = self.values[p.name], self.active[p.name]
            if not on.all():
                col = col.astype(object)
                col[~on] = None
            columns.append(col.tolist())
        return list(zip(*columns))

    def row(self, i: int) -> Configuration:
        return Configuration({name: col.item(i) for name, col in self.values.items()},
                             {name: on.item(i) for name, on in self.active.items()})

    def configurations(self) -> list[Configuration]:
        return [self.row(i) for i in range(self.n)]

    def cursor(self) -> _Row:
        """One view of row 0, to be moved through the block by storing its ``_row``."""
        view = object.__new__(_Row)
        view._block, view._row = self, 0
        return view


def make_configuration(space: SearchSpace, values: dict[str, Any]) -> Configuration:
    """Build a full Configuration from (possibly partial) explicit values.

    A missing parameter takes its placeholder and an explicit value is kept,
    also an inactive one (svm's package defaults keep `degree` 3); flags are
    derived from the conditions. A name outside the space raises SpaceError.
    """
    unknown = [name for name in values if name not in space]
    if unknown:
        raise SpaceError(f"not parameters of {space.algorithm!r}: {', '.join(map(repr, unknown))}")
    full = {p.name: values.get(p.name, p.placeholder()) for p in space.params}
    flags = {p.name: p.condition is None or p.condition.activates(full[p.condition.parent])
             for p in space.params}
    return Configuration(full, flags)


# -- parsing and serialization -------------------------------------------------

def _param_from_dict(d: dict) -> ParamDef:
    cond = None
    if d.get("condition") is not None:
        c = d["condition"]
        cond = Condition(parent=c["parent"], values=tuple(c["values"]))
    levels = tuple(d["levels"]) if d.get("levels") is not None else None
    return ParamDef(
        name=d["name"],
        kind=d["kind"],
        lower=d.get("lower"),
        upper=d.get("upper"),
        levels=levels,
        trafo=d.get("trafo", "identity"),
        condition=cond,
    )


def _param_to_dict(p: ParamDef) -> dict:
    d: dict[str, Any] = {"name": p.name, "kind": p.kind}
    if p.kind in ("numeric", "integer"):
        d["lower"] = p.lower
        d["upper"] = p.upper
    if p.kind == "discrete":
        d["levels"] = list(p.levels)
    if p.trafo != "identity":
        d["trafo"] = p.trafo
    if p.condition is not None:
        d["condition"] = {"parent": p.condition.parent, "values": list(p.condition.values)}
    return d


def parse_space(document: str | dict) -> SearchSpace:
    """Parse a JSON space definition (text or already-decoded mapping)."""
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpaceError(f"not valid JSON: {exc}") from exc
    else:
        data = document
    if not isinstance(data, dict) or "params" not in data:
        raise SpaceError("space definition must be an object with a 'params' list")
    params = tuple(_param_from_dict(d) for d in data["params"])
    return SearchSpace(algorithm=data.get("algorithm", "unnamed"), params=params)


def serialize_space(space: SearchSpace) -> str:
    data = {"algorithm": space.algorithm, "params": [_param_to_dict(p) for p in space.params]}
    return json.dumps(data, indent=2) + "\n"


@functools.cache
def bundled_space(algorithm: str) -> SearchSpace:
    """Load one of the shipped algorithm spaces (glmnet, rpart, kknn, svm, ranger, xgboost)."""
    if algorithm not in BUNDLED_ALGORITHMS:
        raise SpaceError(
            f"no bundled space {algorithm!r}; available: {', '.join(BUNDLED_ALGORITHMS)}"
        )
    text = resources.files("tunemeter").joinpath(f"spaces/{algorithm}.json").read_text("utf-8")
    return parse_space(text)


def bundled_package_defaults(algorithm: str) -> Configuration:
    """Shipped reference configuration mirroring the software package defaults."""
    if algorithm not in BUNDLED_ALGORITHMS:
        raise SpaceError(f"no bundled defaults for {algorithm!r}")
    text = (
        resources.files("tunemeter")
        .joinpath(f"spaces/defaults/{algorithm}.json")
        .read_text("utf-8")
    )
    data = json.loads(text)
    space = bundled_space(algorithm)
    values = {}
    for p in space.params:
        raw = data["values"][p.name]
        values[p.name] = int(raw) if p.kind == "integer" else raw
    return make_configuration(space, values)


# -- transformations -----------------------------------------------------------

def apply_trafo(pdef: ParamDef, raw: float, ds: Optional[DatasetInfo] = None) -> Any:
    """Map a raw sampling-scale value to the effective learner-facing value.

    pow2 gives 2**raw; scale_by_p_ceil gives ceil(raw * p) clamped to
    [1, p]; pow_n_round gives round(n**raw) clamped to [1, n]. Integer
    parameter kinds are rounded half-up after the trafo.
    """
    if pdef.kind in ("discrete", "logical"):
        return raw
    if pdef.trafo == "identity":
        value = float(raw)
    elif pdef.trafo == "pow2":
        value = 2.0 ** float(raw)
    elif pdef.trafo == "scale_by_p_ceil":
        if ds is None:
            raise SpaceError(f"parameter {pdef.name!r}: trafo {pdef.trafo} needs dataset info")
        value = min(max(1, math.ceil(float(raw) * ds.p)), ds.p)
    elif pdef.trafo == "pow_n_round":
        if ds is None:
            raise SpaceError(f"parameter {pdef.name!r}: trafo {pdef.trafo} needs dataset info")
        value = min(max(1, _round_half_up(ds.n ** float(raw))), ds.n)
    else:  # pragma: no cover - rejected at construction
        raise SpaceError(f"unknown trafo {pdef.trafo!r}")
    if pdef.kind == "integer":
        return _round_half_up(value)
    return value


def effective_values(
    space: SearchSpace, config: Configuration, ds: Optional[DatasetInfo] = None
) -> dict[str, Any]:
    """Transformed values of the active parameters (what a learner consumes)."""
    out = {}
    for p in space.params:
        if config.active.get(p.name, False):
            out[p.name] = apply_trafo(p, config.values[p.name], ds)
    return out


# -- candidates ----------------------------------------------------------------

GRID_CAP = 2_000_000


def _check_fixed(space: SearchSpace, fixed: dict[str, Any]) -> None:
    """Raise SpaceError unless each fixed value names a parameter and lies in its range."""
    for name, value in fixed.items():
        if name not in space:
            raise SpaceError(f"fixed value for unknown parameter {name!r}")
        not_a = _not_a(space[name], value)
        if not_a:
            raise SpaceError(f"fixed value {value!r} of {name!r} is not {not_a}")
        if not space[name].contains(value):
            raise SpaceError(f"fixed value {value!r} of {name!r} is outside its bounds or levels")


def _build_block(space: SearchSpace, fixed: dict[str, Any], rows: int,
                 column: Callable[[ParamDef, int], np.ndarray]) -> _Block:
    """Candidates built column by column in draw order, from `rows` rows.

    A pinned parameter's column holds its fixed value. A free one takes
    ``column(p, m)``, k * m values for the m rows whose parent activates it:
    each such row becomes k rows in place, taking the values in order. The
    other rows keep its placeholder, flagged inactive.
    """
    columns: dict[str, np.ndarray] = {}
    flags: dict[str, np.ndarray] = {}
    for p in space.draw_order():
        on = np.ones(rows, dtype=bool)
        if p.condition is not None:
            parent = columns[p.condition.parent]
            on = np.logical_or.reduce([parent == v for v in p.condition.values])
        if p.name in fixed:
            values = np.empty(rows, dtype=object)
            values.fill(fixed[p.name])  # fill keeps the value's own type
        else:
            m = int(on.sum())
            values = column(p, m)
            if m and len(values) > m:
                cells = np.repeat(np.arange(rows), np.where(on, len(values) // m, 1))
                columns = {name: col[cells] for name, col in columns.items()}
                flags = {name: flag[cells] for name, flag in flags.items()}
                on, rows = on[cells], len(cells)
            if len(values) < rows:
                col = np.full(rows, p.placeholder(), dtype=values.dtype)
                col[on] = values
                values = col
        columns[p.name] = values
        flags[p.name] = on
    return _Block(space, columns, flags, rows)


def _draw_column(pdef: ParamDef, rng: np.random.Generator, size: int) -> np.ndarray:
    if pdef.kind == "numeric":
        return rng.uniform(pdef.lower, pdef.upper, size)
    if pdef.kind == "integer":
        return rng.integers(int(pdef.lower), int(pdef.upper) + 1, size)
    return np.array(pdef.levels, dtype=object)[rng.integers(0, len(pdef.levels), size)]


def sample_configurations(
    space: SearchSpace,
    rng: np.random.Generator,
    n: int,
    fixed: Optional[dict[str, Any]] = None,
) -> list[Configuration]:
    """Draw `n` configurations: uniform on the untransformed scale per parameter.

    Draws go column by column in draw order (parents before children), one
    vectorised generator call per drawn parameter, so one row reproduces
    the stream of drawing a single configuration. Parameters named in
    ``fixed`` are pinned instead of drawn; an unknown name or a value
    outside its parameter's bounds or levels raises SpaceError. A
    conditional parameter is drawn only for the rows whose (pinned or
    drawn) parent activates it; the other rows carry its fixed or
    placeholder value flagged inactive.
    Drawn values are plain Python ``float``/``int``/``str``.
    """
    return _sample_block(space, rng, n, fixed).configurations()


def _sample_block(space: SearchSpace, rng: np.random.Generator, n: int,
                  fixed: Optional[dict[str, Any]]) -> _Block:
    fixed = fixed or {}
    _check_fixed(space, fixed)
    return _build_block(space, fixed, n, lambda p, m: _draw_column(p, rng, m))


def sample_configuration(
    space: SearchSpace,
    rng: np.random.Generator,
    fixed: Optional[dict[str, Any]] = None,
) -> Configuration:
    """Draw one configuration; see `sample_configurations`."""
    return sample_configurations(space, rng, 1, fixed)[0]


def grid_values(pdef: ParamDef, levels: int) -> list:
    """Grid support for one parameter.

    Numeric: `levels` equally spaced points (one point when the bounds are
    degenerate). Integer: every integer in range when that is fewer than
    `levels`, otherwise `levels` evenly spaced distinct integers. Discrete
    and logical: all declared levels.
    """
    if pdef.kind in ("discrete", "logical"):
        return list(pdef.levels)
    if pdef.lower == pdef.upper:
        return [int(pdef.lower)] if pdef.kind == "integer" else [float(pdef.lower)]
    if levels < 2:
        raise SpaceError(f"parameter {pdef.name!r}: grid needs >= 2 levels")
    if pdef.kind == "integer":
        lo, hi = int(pdef.lower), int(pdef.upper)
        if hi - lo + 1 <= levels:
            return list(range(lo, hi + 1))
        pts = np.linspace(lo, hi, levels)
        return sorted({_round_half_up(v) for v in pts})
    return [float(v) for v in np.linspace(pdef.lower, pdef.upper, levels)]


def grid_configurations(space: SearchSpace, levels: int,
                        fixed: Optional[dict[str, Any]] = None) -> list[Configuration]:
    """Every grid cell, lexicographic in draw order (parents before children).

    Free parameters take their `grid_values`, and a conditional parameter
    only under the parent values that activate it: elsewhere it carries its
    fixed or placeholder value flagged inactive. Pinned parameters take
    their one fixed value, checked as in `sample_configurations`. A grid of
    more than GRID_CAP cells raises ValueError before any cell is built.
    """
    return _grid_block(space, levels, fixed).configurations()


def _grid_block(space: SearchSpace, levels: int, fixed: Optional[dict[str, Any]]) -> _Block:
    fixed = fixed or {}
    _check_fixed(space, fixed)
    support = {p.name: np.array(grid_values(p, levels),
                                dtype=object if p.kind in ("discrete", "logical") else None)
               for p in space.params if p.name not in fixed}
    cells = 1
    for root in (p for p in space.params if not p.is_conditional):
        children = [c for c in space.params if c.condition and c.condition.parent == root.name
                    and c.name in support]
        cells *= sum(math.prod(len(support[c.name]) for c in children if c.condition.activates(v))
                     for v in ([fixed[root.name]] if root.name in fixed else support[root.name]))
    if cells > GRID_CAP:
        raise ValueError(f"grid of {cells} cells exceeds {GRID_CAP}; lower the levels")
    return _build_block(space, fixed, 1, lambda p, m: np.tile(support[p.name], m))


# -- validation ----------------------------------------------------------------

def validate_configuration(space: SearchSpace, config: Configuration) -> list[str]:
    """All Configuration invariant violations; empty list means valid."""
    violations = []
    for p in space.params:
        if p.name not in config.values:
            violations.append(f"{p.name}: missing value")
            continue
        if p.name not in config.active:
            violations.append(f"{p.name}: missing activity flag")
            continue
        is_active = config.active[p.name]
        if p.condition is None:
            if not is_active:
                violations.append(f"{p.name}: unconditional parameter marked inactive")
        else:
            should = p.condition.activates(config.values.get(p.condition.parent))
            if is_active and not should:
                violations.append(f"{p.name}: must be inactive under {p.condition.parent}")
            elif not is_active and should:
                violations.append(f"{p.name}: must be active under {p.condition.parent}")
        not_a = _not_a(p, config.values[p.name])
        if is_active and not_a:
            violations.append(f"{p.name}: value {config.values[p.name]!r} is not {not_a}")
        elif is_active and not p.contains(config.values[p.name]):
            if p.kind in ("numeric", "integer"):
                violations.append(f"{p.name}: value {config.values[p.name]} out of bounds")
            else:
                violations.append(f"{p.name}: value {config.values[p.name]!r} not a level")
    for name in config.values:
        if name not in space:
            violations.append(f"{name}: not a parameter of the space")
    return violations
