"""Call-price surfaces, their validation, and the implied probability systems.

A surface is the matrix of European call quotes c[j][n] over a strike grid
(strike 0 is implicit: a zero-strike call is the asset itself) and a maturity
grid.  Second differences in strike give the implied marginal law of the
price at each maturity; appending the last traded call price as an extra row
gives the extended system used when no zero-price call exists.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10


class MarketError(Exception):
    pass


@dataclass
class CallSurface:
    """s0, strictly increasing positive strikes/maturities, and call quotes.

    ``prices`` is (J+1) x N with row 0 fixed to s0 (the zero-strike call).
    """

    s0: float
    strikes: np.ndarray
    maturities: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        self.strikes = np.asarray(self.strikes, dtype=float)
        self.maturities = np.asarray(self.maturities, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        if self.s0 <= 0:
            raise MarketError("s0 must be positive")
        for name, g in (("strikes", self.strikes), ("maturities", self.maturities)):
            if g.ndim != 1 or len(g) == 0:
                raise MarketError("%s must be a non-empty vector" % name)
            if np.any(g <= 0) or np.any(np.diff(g) <= 0):
                raise MarketError("%s must be strictly increasing and positive" % name)
        J, N = len(self.strikes), len(self.maturities)
        if self.prices.shape != (J + 1, N):
            raise MarketError("price matrix must be (J+1) x N including the s0 row")
        if np.any(self.prices < 0):
            raise MarketError("negative call prices")
        if np.any(np.abs(self.prices[0] - self.s0) > 1e-12 * (1 + self.s0)):
            raise MarketError("row 0 must equal s0 (zero-strike call)")

    @property
    def states(self):
        """The price lattice: strike 0 plus the traded strikes."""
        return np.concatenate([[0.0], self.strikes])

    @property
    def num_strikes(self):
        return len(self.strikes)

    @property
    def num_maturities(self):
        return len(self.maturities)


@dataclass
class ValidationReport:
    status: str                      # weakly-valid | strictly-valid | invalid
    violations: list                 # (constraint-id, indices, magnitude)
    zero_tail: bool = False

    @property
    def valid(self):
        return self.status != "invalid"


@dataclass
class MarginalSystem:
    """Implied node probabilities, one column per maturity."""

    probs: np.ndarray                # (J+1) x N
    strikes: np.ndarray
    maturities: np.ndarray
    s0: float

    @property
    def states(self):
        return np.concatenate([[0.0], self.strikes])


@dataclass
class ExtendedMarginalSystem:
    """Marginals plus a final row carrying the unhedged tail call value."""

    rows: np.ndarray                 # (J+2) x N
    strikes: np.ndarray
    maturities: np.ndarray
    s0: float

    @property
    def states(self):
        return np.concatenate([[0.0], self.strikes])


def load_surface(source) -> CallSurface:
    """Build a CallSurface from a dict, JSON/CSV path, or JSON/CSV text.

    A string that names no file is read as text only if it starts with "{"
    or spans several lines; otherwise it is a missing path.

    Schemas: {"s0", "strikes", "maturities", "calls"} with calls indexed
    [strike][maturity]; or {"marginals", "maturities", optional "states"}
    with marginals indexed [state][maturity] (calls are then priced off the
    marginals).  CSV: header row of maturities, first column strikes, first
    data row strike 0 carrying s0.
    """
    doc = _read_document(source)
    if "marginals" in doc:
        return _surface_from_marginals(doc)
    try:
        s0 = float(doc["s0"])
        strikes = np.asarray(doc["strikes"], dtype=float)
        maturities = np.asarray(doc["maturities"], dtype=float)
        calls = np.asarray(doc["calls"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MarketError("malformed surface document: %s" % exc)
    if calls.ndim != 2:
        raise MarketError("calls must be a [strike][maturity] matrix")
    if calls.shape == (len(strikes), len(maturities)):
        prices = np.vstack([np.full(len(maturities), s0), calls])
    elif calls.shape == (len(strikes) + 1, len(maturities)):
        prices = calls  # strike-0 row supplied explicitly
    else:
        raise MarketError("calls shape %s does not match grids" % (calls.shape,))
    return CallSurface(s0, strikes, maturities, prices)


def _read_document(source):
    if isinstance(source, dict):
        return source
    if isinstance(source, (str, os.PathLike)):
        if isinstance(source, os.PathLike) or os.path.exists(source):
            with open(source) as fh:
                text = fh.read()
        elif "\n" in source or source.lstrip().startswith("{"):
            text = source
        else:
            raise MarketError("no surface file %r" % source)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                return json.loads(text)
            except json.JSONDecodeError as exc:
                raise MarketError("bad JSON: %s" % exc)
        return _parse_csv(text)
    raise MarketError("unsupported source type %r" % type(source))


def _parse_csv(text):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if len(rows) < 2:
        raise MarketError("CSV surface needs a header and at least one strike row")
    try:
        maturities = [float(v) for v in rows[0][1:]]
        strikes, calls = [], []
        s0 = None
        for r in rows[1:]:
            k = float(r[0])
            vals = [float(v) for v in r[1:]]
            if k == 0.0:
                s0 = vals[0]
            else:
                strikes.append(k)
                calls.append(vals)
        if s0 is None:
            raise MarketError("CSV surface must include the strike-0 row (s0)")
    except ValueError as exc:
        raise MarketError("bad CSV number: %s" % exc)
    return {"s0": s0, "strikes": strikes, "maturities": maturities, "calls": calls}


def _surface_from_marginals(doc):
    probs = np.asarray(doc["marginals"], dtype=float)
    if probs.ndim != 2:
        raise MarketError("marginals must be a [state][maturity] matrix")
    if "states" in doc:
        states = np.asarray(doc["states"], dtype=float)
    elif "strikes" in doc:
        states = np.concatenate([[0.0], np.asarray(doc["strikes"], dtype=float)])
    else:
        states = np.arange(probs.shape[0], dtype=float)
    if states[0] != 0.0:
        states = np.concatenate([[0.0], states])
        probs = np.vstack([np.zeros(probs.shape[1]), probs])
    if probs.shape[0] != len(states):
        raise MarketError("marginals rows must match states")
    maturities = np.asarray(doc["maturities"], dtype=float)
    if probs.shape[1] != len(maturities):
        raise MarketError("marginals columns must match maturities")
    sums = probs.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        raise MarketError("marginal columns must sum to 1")
    means = states @ probs
    if np.any(np.abs(means - means[0]) > 1e-8 * (1 + abs(means[0]))):
        raise MarketError("marginal columns must share a common mean")
    s0 = float(doc.get("s0", means[0]))
    if abs(s0 - means[0]) > 1e-8 * (1 + s0):
        raise MarketError("s0 inconsistent with marginal means")
    strikes = states[1:]
    calls = np.array([[(np.maximum(states - k, 0.0) @ probs[:, n])
                       for n in range(len(maturities))] for k in strikes])
    prices = np.vstack([np.full(len(maturities), s0), calls])
    return CallSurface(s0, strikes, maturities, prices)


def validate(surface: CallSurface, mode="weak", tol=DEFAULT_TOL) -> ValidationReport:
    """Static no-arbitrage checks per maturity plus calendar monotonicity.

    Weak mode reports violations beyond tol; strict mode additionally
    requires every inequality to hold with margin > tol and a positive
    last-strike call at every maturity.
    """
    if mode not in ("weak", "strict"):
        raise MarketError("mode must be 'weak' or 'strict'")
    c = surface.prices
    x = surface.states
    J, N = surface.num_strikes, surface.num_maturities
    weak, strict = [], []

    for n in range(N):
        col = c[:, n]
        for j in range(J):
            drop = col[j] - col[j + 1]
            if drop < -tol:
                weak.append(("monotone-in-strike", (j + 1, n), -drop))
            elif drop <= tol:
                strict.append(("monotone-in-strike", (j + 1, n), tol - drop))
        slopes = -(np.diff(col)) / np.diff(x)
        if slopes[0] > 1.0 + tol:
            weak.append(("slope-bound", (0, n), slopes[0] - 1.0))
        elif slopes[0] >= 1.0 - tol:
            strict.append(("slope-bound", (0, n), slopes[0] - 1.0 + tol))
        for j in range(J - 1):
            conv = slopes[j] - slopes[j + 1]
            if conv < -tol:
                weak.append(("convexity", (j + 1, n), -conv))
            elif conv <= tol:
                strict.append(("convexity", (j + 1, n), tol - conv))
        if col[J] < tol:
            strict.append(("positive-tail", (J, n), tol - col[J]))
    for n in range(N - 1):
        for j in range(1, J + 1):
            gain = c[j, n + 1] - c[j, n]
            if gain < -tol:
                weak.append(("calendar", (j, n), -gain))
            elif gain <= tol:
                strict.append(("calendar", (j, n), tol - gain))

    zero_tail = bool(c[J, N - 1] <= tol)
    if weak:
        status = "invalid"
        violations = weak if mode == "weak" else weak + strict
    elif strict:
        status = "invalid" if mode == "strict" else "weakly-valid"
        violations = strict if mode == "strict" else []
    else:
        status = "strictly-valid"
        violations = []
    return ValidationReport(status, violations, zero_tail)


def implied_marginals(surface: CallSurface, tol=DEFAULT_TOL) -> MarginalSystem:
    """Node probabilities from call-spread second differences.

    p[0] = 1 - (s0 - c[1])/x1; interior entries are slope differences;
    p[J] is the last call spread per unit strike.  Small negative entries
    (within tol) are clipped and the column renormalized.
    """
    c = surface.prices
    x = surface.states
    J, N = surface.num_strikes, surface.num_maturities
    p = np.zeros((J + 1, N))
    for n in range(N):
        slopes = (c[:-1, n] - c[1:, n]) / np.diff(x)   # length J
        p[0, n] = 1.0 - slopes[0]
        for j in range(1, J):
            p[j, n] = slopes[j - 1] - slopes[j]
        p[J, n] = slopes[J - 1]
        neg = p[:, n] < 0
        if np.any(p[neg, n] < -tol):
            worst = float(np.min(p[:, n]))
            raise MarketError("inconsistent surface: implied probability %.3e" % worst)
        p[neg, n] = 0.0
        total = p[:, n].sum()
        if abs(total - 1.0) > 1e-8:
            raise MarketError("implied probabilities sum to %.12g" % total)
        p[:, n] /= total
    return MarginalSystem(p, surface.strikes.copy(), surface.maturities.copy(),
                          surface.s0)


def extended_marginals(surface: CallSurface, tol=DEFAULT_TOL) -> ExtendedMarginalSystem:
    """Implied marginals plus the tail row equal to the last call price."""
    m = implied_marginals(surface, tol)
    tail = surface.prices[-1, :].copy()
    rows = np.vstack([m.probs, tail])
    return ExtendedMarginalSystem(rows, surface.strikes.copy(),
                                  surface.maturities.copy(), surface.s0)


def price_piecewise_linear(surface: CallSurface, values, tail_slopes):
    """Static cost of each payoff column: column n pays, at maturity index
    n, the extended linear interpolation of ``values[:, n]`` (one entry per
    lattice state) with slope ``tail_slopes[n]`` beyond the top strike."""
    h = np.asarray(values, dtype=float)
    J, N = surface.num_strikes, surface.num_maturities
    if h.shape != (J + 1, N):
        raise MarketError("values must be (lattice states) x (maturities)")
    rows = extended_marginals(surface).rows
    return np.array([h[:, n] @ rows[:-1, n] + tail_slopes[n] * rows[-1, n]
                     for n in range(N)])
