"""Experiment configuration: defaults, JSON (de)serialization, dotted overrides."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import NamedTuple

from .graphs import GENERATORS


class Method(NamedTuple):
    mask: bool          # learn a curriculum edge mask
    prox: bool          # add the proximal term (beta/2)||w - w_round||^2
    aggregation: str    # similarity | mean | none


# The README's methods table lists the same rows; a test compares the two.
METHODS = {
    "CUFL": Method(mask=True, prox=True, aggregation="similarity"),
    "FedAvg": Method(mask=False, prox=False, aggregation="mean"),
    "FedProx": Method(mask=False, prox=True, aggregation="mean"),
    "FedAvgCL": Method(mask=True, prox=False, aggregation="mean"),
    "Local": Method(mask=False, prox=False, aggregation="none"),
}


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSpec:
    kind: str = "sbm"            # sbm | er | ba | dir
    path: str | None = None      # for kind=dir
    blocks: int = 2
    block_size: int = 200
    p_in: float = 0.08
    p_cross: float = 0.005
    n: int = 100                 # er/ba node count
    p: float = 0.05              # er edge probability
    m: int = 2                   # ba attachment count
    dx: int = 16
    num_classes: int = 2


@dataclass
class PartitionSpec:
    kind: str = "bisection"      # bisection | louvain | overlap | file
    base_parts: int = 2
    copies_per_part: int = 2
    frac: float = 0.5


@dataclass
class ModelSpec:
    hidden: int = 128
    lr: float = 0.01


@dataclass
class IesSpec:
    gamma: float = 0.001
    zeta: float = 1.5
    lr_train: float = 0.0005
    lr_aggr: float = 0.00001
    init_value: float = 0.5
    steps: int = 10
    embeddings: str = "hidden"   # hidden | logits


@dataclass
class FedSpec:
    beta: float = 0.001
    tau: float | str = 5.0       # number or "adaptive"
    tau_update_interval: int = 1
    prune_frac: float = 0.3
    tau_init: float = 5.0
    tau_patience: int = 5
    tau_rho: float = 1.25
    tau_min: float = 3.0
    tau_max: float = 10.0


@dataclass
class ReferenceSpec:
    kind: str = "sbm"            # sbm | er | ba
    blocks: int = 5
    block_size: int = 100
    p_in: float = 0.1
    p_cross: float = 0.0
    n: int = 500
    p: float = 0.05
    m: int = 2


@dataclass
class WarmupSpec:
    rounds: int = 10
    steps: int = 10


@dataclass
class ExperimentConfig:
    method: str = "CUFL"
    seed: int = 0
    rounds: int = 50
    epochs: int = 1
    num_clients: int = 4
    split_ratios: tuple[float, ...] = (2.0, 4.0, 4.0)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    ies: IesSpec = field(default_factory=IesSpec)
    fed: FedSpec = field(default_factory=FedSpec)
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    warmup: WarmupSpec = field(default_factory=WarmupSpec)
    dump_rounds: tuple[int, ...] | None = None   # None -> (1, rounds)

    def validate(self):
        def check_types(obj, prefix):
            for f in fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    check_types(value, prefix + f.name + ".")
                else:
                    _coerce(value, f.type, prefix + f.name)

        check_types(self, "")

        def value(key):
            return reduce(getattr, key.split("."), self)

        for key, choices in (("method", tuple(METHODS)),
                             ("dataset.kind", (*GENERATORS, "dir")),
                             ("reference.kind", tuple(GENERATORS)),
                             ("partition.kind", ("bisection", "louvain", "overlap", "file")),
                             ("ies.embeddings", ("hidden", "logits"))):
            if value(key) not in choices:
                raise ConfigError(f"config key {key!r} must be one of {choices}, "
                                  f"got {value(key)!r}")
        method = METHODS[self.method]
        lower_bounds = [(key, 0) for key in (
            "seed", "rounds", "warmup.rounds", "warmup.steps", "ies.gamma", "fed.beta",
            "fed.tau_init", "fed.tau_min", "fed.tau_max", "fed.tau_patience")]
        if not isinstance(self.fed.tau, str):
            lower_bounds.append(("fed.tau", 0))
        lower_bounds += [(key, 1) for key in (
            "epochs", "num_clients", "fed.tau_update_interval", "model.hidden", "dataset.dx",
            "dataset.num_classes", "partition.base_parts", "partition.copies_per_part",
            "dataset.blocks", "dataset.block_size", "dataset.n", "dataset.m",
            "reference.blocks", "reference.block_size", "reference.n", "reference.m")]
        if method.mask or method.aggregation == "similarity":  # these call mask_step
            lower_bounds.append(("ies.steps", 1))
        for key, low in lower_bounds:
            if value(key) < low:
                raise ConfigError(f"config key {key!r} must be >= {low}, got {value(key)}")
        for key in ("model.lr", "ies.lr_train", "ies.lr_aggr", "ies.zeta", "fed.tau_rho"):
            if value(key) <= 0:
                raise ConfigError(f"config key {key!r} must be positive")
        # mask_step's closed form holds for lr * gamma <= 1
        for key, used in (("ies.lr_train", method.mask),
                          ("ies.lr_aggr", method.aggregation == "similarity")):
            if used and value(key) * self.ies.gamma > 1:
                raise ConfigError(f"config key {key!r} times ies.gamma={self.ies.gamma} "
                                  f"must be <= 1, got {value(key)}")
        for key in ("ies.init_value", "dataset.p_in", "dataset.p_cross", "dataset.p",
                    "reference.p_in", "reference.p_cross", "reference.p"):
            if not 0.0 <= value(key) <= 1.0:
                raise ConfigError(f"config key {key!r} must lie in [0, 1], got {value(key)}")
        if self.fed.tau_min > self.fed.tau_max:
            raise ConfigError(f"config key 'fed.tau_min' must be <= fed.tau_max="
                              f"{self.fed.tau_max}, got {self.fed.tau_min}")
        if self.fed.tau == "adaptive" and not (self.fed.tau_min <= self.fed.tau_init
                                               <= self.fed.tau_max):
            raise ConfigError(f"config key 'fed.tau_init' must lie in [fed.tau_min, "
                              f"fed.tau_max] = [{self.fed.tau_min}, {self.fed.tau_max}] "
                              f"when fed.tau is 'adaptive', got {self.fed.tau_init}")
        r = self.split_ratios
        if len(r) != 3 or min(r) < 0 or r[0] <= 0:
            raise ConfigError("config key 'split_ratios' must be three numbers >= 0 with "
                              f"a positive first (train) entry, got {list(r)}")
        try:
            check_dump_rounds(self.dump_rounds, self.rounds)
        except ValueError as exc:
            raise ConfigError(f"config key 'dump_rounds' {exc}") from None
        if isinstance(self.fed.tau, str) and self.fed.tau != "adaptive":
            raise ConfigError("config key 'fed.tau' must be a number or 'adaptive'")
        if not 0.0 <= self.fed.prune_frac < 1.0:
            raise ConfigError("config key 'fed.prune_frac' must lie in [0, 1)")
        if not 0.0 < self.partition.frac <= 1.0:
            raise ConfigError("config key 'partition.frac' must lie in (0, 1]")
        if self.partition.kind == "overlap":
            want = self.partition.base_parts * self.partition.copies_per_part
            if self.num_clients != want:
                raise ConfigError(
                    f"config key 'num_clients' must equal partition.base_parts x "
                    f"partition.copies_per_part = {want} for partition.kind='overlap', "
                    f"got {self.num_clients}")
        # ba starts from a complete graph on m+1 nodes; only similarity builds a reference
        for key, used in (("dataset", True), ("reference", method.aggregation == "similarity")):
            spec = value(key)
            if used and spec.kind == "ba" and spec.n <= spec.m:
                raise ConfigError(f"config key '{key}.n' must exceed {key}.m={spec.m} "
                                  f"for {key}.kind='ba', got {spec.n}")
        if self.dataset.kind == "dir" and not self.dataset.path:
            raise ConfigError("dataset.path is required for dataset.kind='dir'")
        if self.partition.kind == "file" and self.dataset.kind != "dir":
            raise ConfigError("partition.kind='file' requires dataset.kind='dir'")


def check_dump_rounds(dump_rounds, rounds: int) -> None:
    """Raise ValueError unless `dump_rounds` is None or a list or tuple of integers
    (not bools) in 1..rounds."""
    if dump_rounds is None:
        return
    if not isinstance(dump_rounds, (list, tuple)):
        raise ValueError(f"must be null or a list of integers, got {dump_rounds!r}")
    bad = [t for t in dump_rounds if type(t) is not int or not 1 <= t <= rounds]
    if bad:
        raise ValueError(f"entries must be integers in 1..rounds={rounds}, got {bad}")


def dump_rounds_of(dump_rounds, rounds: int) -> tuple:
    """The rounds whose masks and reference reconstructions a run writes: the listed
    ones, or for None the first and last round (none when `rounds` is 0)."""
    if dump_rounds is not None:
        return tuple(dump_rounds)
    if rounds == 0:
        return ()
    return (1, rounds)


_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}


def _coerce(value, annotation: str, key: str):
    """Return `value` as a field annotated `annotation` stores it: an int becomes a
    float for a float field or float-tuple entry, so 5 and 5.0 echo alike, and a list
    becomes a tuple. Raise ConfigError naming `key` for a value of no listed type, a
    NaN or infinity, or an int too large for a float."""
    for t in annotation.split(" | "):
        if t.startswith("tuple["):  # tuple[T, ...]: a list or tuple of T
            if isinstance(value, (list, tuple)):
                item = t[len("tuple["):].split(",")[0]
                return tuple(_coerce(x, item, key) for x in value)
        elif isinstance(value, _TYPES[t]) and not isinstance(value, bool):
            if t != "float":
                return value
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"config key {key!r} is too large for a float") from None
            if not math.isfinite(value):
                raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
            return value
    raise ConfigError(f"config key {key!r} must be {annotation}, got {value!r}")


def _load(obj, data: dict, prefix: str):
    """Store each entry of `data` into the dataclass `obj` through `_coerce`; a
    section's entries load into its sub-dataclass."""
    valid = {f.name: f.type for f in fields(obj)}
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {prefix + key!r}; "
                              f"valid keys: {sorted(valid)}")
        section = getattr(obj, key)
        if dataclasses.is_dataclass(section):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix + key!r} must be an object")
            _load(section, value, prefix + key + ".")
        else:
            setattr(obj, key, _coerce(value, valid[key], prefix + key))


def to_dict(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["split_ratios"] = list(cfg.split_ratios)
    if cfg.dump_rounds is not None:
        d["dump_rounds"] = list(cfg.dump_rounds)
    return d


def from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    cfg = ExperimentConfig()
    _load(cfg, data, "")
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return from_dict(data)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: ExperimentConfig, overrides: list) -> ExperimentConfig:
    """Apply repeatable `--set dotted.key=value` overrides to a copy of `cfg` and
    revalidate; `a.b=v` loads as `{"a": {"b": v}}`."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must be of the form key=value")
        dotted, raw = item.split("=", 1)
        _load(cfg, reduce(lambda v, k: {k: v}, reversed(dotted.split(".")),
                          _parse_value(raw)), "")
    cfg.validate()
    return cfg
