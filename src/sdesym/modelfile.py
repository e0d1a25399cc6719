"""Model files: a key-value text format for systems, parameters, sampling
boxes, candidate vector fields and changes of variables.

Example::

    [system]
    n = 1
    m = 1
    type = ito
    f1 = lam*x
    sigma_1_1 = mu*x^alpha

    [params]
    lam = 1
    mu = 1
    alpha = 2

    [sampling]
    x1 = 0.4, 2.0

    [vectorfield.scaling]
    phi1 = x
    R = [[-1]]

    [changeofvars.rectify]
    phi1 = exp(x)
    inverse1 = log(x)

Sections ``vectorfield.NAME`` may give either ``h1..hm`` expressions or a
constant matrix ``R`` (JSON row list); a ``changeofvars.NAME`` section with
``R`` is read new-to-old (x = phi(y), w = R z), one without old-to-new, and
its optional ``direction`` key must agree.  Unknown identifiers in
expressions are free parameters; ``[params]`` binds them numerically.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .expr import Context, Expr, ExprSyntaxError, SamplingBox, ZERO, parse
from .reduction import ChangeOfVariables, ReductionError
from .sde import SYSTEM_TYPES, ModelError, System
from .symmetry import GeneralH, LinearW, VectorField


class ModelFileError(ValueError):
    pass


@dataclass
class ModelBundle:
    path: Optional[Path]
    sha256: str
    ctx: Context
    system: System
    box: SamplingBox
    vectorfields: Dict[str, VectorField] = field(default_factory=dict)
    covs: Dict[str, ChangeOfVariables] = field(default_factory=dict)

    def field_names(self):
        return list(self.vectorfields)


def _parse_interval(text: str, where: str) -> Tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ModelFileError(f"{where}: expected 'low, high', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ModelFileError(f"{where}: bounds must be numbers, got {text!r}") from None
    if not lo < hi:
        raise ModelFileError(f"{where}: empty interval {text!r}")
    return lo, hi


def _parse_matrix(text: str, m: int, where: str) -> np.ndarray:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFileError(f"{where}: bad matrix literal: {err}") from None
    try:
        mat = np.atleast_2d(np.asarray(rows, dtype=float))
    except (TypeError, ValueError):
        raise ModelFileError(f"{where}: matrix entries must be numbers, got {text!r}") from None
    if mat.shape != (m, m):
        raise ModelFileError(f"{where}: matrix must be {m} x {m}, got {mat.shape}")
    return mat


def load_model(source: Union[str, Path], text: Optional[str] = None) -> ModelBundle:
    """Load a model file from a path, or from ``text`` with ``source`` used
    as a label."""
    if text is None:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as err:
            raise ModelFileError(f"cannot read model file {path}: {err}") from None
    else:
        path = Path(source) if source else None
    digest = hashlib.sha256(text.encode()).hexdigest()

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ModelFileError(f"model file syntax: {err}") from None

    if "system" not in cp:
        raise ModelFileError("missing [system] section")
    system_section = cp["system"]

    def dimension(key: str) -> int:
        if key not in system_section:
            raise ModelFileError(f"[system] missing key {key!r}")
        raw = system_section[key]
        try:
            value = int(raw)
        except ValueError:
            raise ModelFileError(f"[system] {key}: not an integer: {raw!r}") from None
        if value < 1:
            raise ModelFileError(f"[system] {key} must be at least 1, got {value}")
        return value

    n = dimension("n")
    m = dimension("m")
    calculus = system_section.get("type", "ito").strip().lower()
    if calculus not in SYSTEM_TYPES:
        raise ModelFileError(f"unknown system type {calculus!r}")

    params: Dict[str, float] = {}
    if "params" in cp:
        for key, value in cp["params"].items():
            try:
                params[key] = float(value)
            except ValueError:
                raise ModelFileError(f"[params] {key}: not a number: {value!r}") from None
    ctx = Context(n=n, m=m, params=params)

    def expr_of(section, key: str, where: str, default: Optional[Expr] = None) -> Expr:
        if key not in section:
            if default is not None:
                return default
            raise ModelFileError(f"{where}: missing {key}")
        try:
            return parse(section[key], ctx)
        except ExprSyntaxError as err:
            raise ModelFileError(f"{where} {key}: {err}") from None

    drift = tuple(expr_of(system_section, f"f{i}", "[system]") for i in range(1, n + 1))
    sigma = tuple(
        tuple(
            expr_of(system_section, f"sigma_{i}_{k}", "[system]", default=ZERO)
            for k in range(1, m + 1)
        )
        for i in range(1, n + 1)
    )
    try:
        system = SYSTEM_TYPES[calculus](ctx, drift, sigma)
    except ModelError as err:
        raise ModelFileError(f"[system] {err}") from None

    state_overrides: Dict[int, Tuple[float, float]] = {}
    wiener_overrides: Dict[int, Tuple[float, float]] = {}
    param_overrides: Dict[str, Tuple[float, float]] = {}
    time_box = SamplingBox().time
    if "sampling" in cp:
        for key, value in cp["sampling"].items():
            interval = _parse_interval(value, f"[sampling] {key}")
            if key == "t":
                time_box = interval
            elif key.startswith("x") and key[1:].isdigit():
                state_overrides[int(key[1:])] = interval
            elif key.startswith("w") and key[1:].isdigit():
                wiener_overrides[int(key[1:])] = interval
            elif key == "x" and n == 1:
                state_overrides[1] = interval
            elif key == "w" and m == 1:
                wiener_overrides[1] = interval
            else:
                param_overrides[key] = interval
    box = SamplingBox(
        time=time_box,
        state_overrides=state_overrides,
        wiener_overrides=wiener_overrides,
        param_overrides=param_overrides,
    )

    bundle = ModelBundle(path, digest, ctx, system, box)

    for section_name in cp.sections():
        if section_name.startswith("vectorfield."):
            name = section_name[len("vectorfield.") :]
            section = cp[section_name]
            where = f"[{section_name}]"
            phi = tuple(expr_of(section, f"phi{i}", where) for i in range(1, n + 1))
            tau = expr_of(section, "tau", where, default=ZERO)
            noise = None
            has_h = any(f"h{k}" in section for k in range(1, m + 1))
            if "R" in section and has_h:
                raise ModelFileError(f"{where}: give either R or h1..hm, not both")
            if "R" in section:
                noise = LinearW.from_matrix(_parse_matrix(section["R"], m, where))
            elif has_h:
                noise = GeneralH(
                    tuple(expr_of(section, f"h{k}", where, default=ZERO) for k in range(1, m + 1))
                )
            bundle.vectorfields[name] = VectorField(ctx, phi, tau, noise)
        elif section_name.startswith("changeofvars."):
            name = section_name[len("changeofvars.") :]
            section = cp[section_name]
            where = f"[{section_name}]"
            forward = tuple(expr_of(section, f"phi{i}", where) for i in range(1, n + 1))
            inverse = None
            if any(f"inverse{i}" in section for i in range(1, n + 1)):
                inverse = tuple(
                    expr_of(section, f"inverse{i}", where) for i in range(1, n + 1)
                )
            wiener = None
            if "R" in section:
                wiener = LinearW.from_matrix(_parse_matrix(section["R"], m, where))
            implied = "old_to_new" if wiener is None else "new_to_old"
            if section.get("direction", implied).strip() != implied:
                raise ModelFileError(f"{where}: direction must be {implied} for a map "
                                     f"{'without' if wiener is None else 'with'} R")
            try:
                bundle.covs[name] = ChangeOfVariables(ctx, forward, wiener=wiener, inverse=inverse)
            except ReductionError as err:
                raise ModelFileError(f"{where}: {err}") from None
        elif section_name not in ("system", "params", "sampling"):
            raise ModelFileError(f"unknown section [{section_name}]")
    return bundle


def render_system(system: System) -> str:
    """Model-file text for a system (used by the conversion command)."""
    from .expr import to_string

    ctx = system.ctx
    lines = ["[system]", f"n = {ctx.n}", f"m = {ctx.m}", f"type = {system.calculus}"]
    for i in range(1, ctx.n + 1):
        lines.append(f"f{i} = {to_string(system.drift[i-1])}")
    for i in range(1, ctx.n + 1):
        for k in range(1, ctx.m + 1):
            lines.append(f"sigma_{i}_{k} = {to_string(system.sigma[i-1][k-1])}")
    if ctx.params:
        lines.append("")
        lines.append("[params]")
        for key, value in ctx.params.items():
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"
