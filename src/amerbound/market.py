"""Call-price surfaces, their validation, and the implied mass matrices.

A surface is the matrix of European call quotes c[j][n] over a strike grid
(strike 0 is implicit: a zero-strike call is the asset itself) and a maturity
grid.  The call-spread slopes between neighbouring strikes are derived once
(``_spreads``); their differences give the implied marginal law of the price
at each maturity, and the same arrays carry the no-arbitrage margins that
``validate`` grades.  A mass matrix is a plain array, one column per
maturity: (J+1) rows of node probabilities, plus, in the extended matrix
used when no zero-price call exists, a tail row that holds the top call's
price.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

# a no-arbitrage inequality may fail by up to TOL and still count as weakly
# met; the implied law clips negative masses no larger than TOL
TOL = 1e-10


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
        if not all(np.isfinite(v).all() for v in (self.s0, self.strikes,
                                                    self.maturities, self.prices)):
            raise MarketError("s0, strikes, maturities and prices must be finite")
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
    try:
        if "marginals" in doc:
            return _surface_from_marginals(doc)
        s0 = float(doc["s0"])
        strikes = np.asarray(doc["strikes"], dtype=float)
        maturities = np.asarray(doc["maturities"], dtype=float)
        calls = np.asarray(doc["calls"], dtype=float)
        if calls.ndim != 2:
            raise MarketError("calls must be a [strike][maturity] matrix")
        if calls.shape == (len(strikes), len(maturities)):
            prices = np.vstack([np.full(len(maturities), s0), calls])
        elif calls.shape == (len(strikes) + 1, len(maturities)):
            prices = calls  # strike-0 row supplied explicitly
        else:
            raise MarketError("calls shape %s does not match grids"
                              % (calls.shape,))
    # a scalar or empty grid has no len() or no first entry
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise MarketError("malformed surface document: %s" % exc)
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
        table = [(float(r[0]), [float(v) for v in r[1:]]) for r in rows[1:]]
    except ValueError as exc:
        raise MarketError("bad CSV number: %s" % exc)
    zero = [vals for k, vals in table if k == 0.0]
    if len(zero) != 1:
        raise MarketError("CSV surface needs one strike-0 row (s0), not %d"
                          % len(zero))
    if not zero[0]:
        raise MarketError("CSV strike-0 row holds no price")
    # the strike-0 row goes through whole, for CallSurface to check against s0
    return {"s0": zero[0][0], "maturities": maturities,
            "strikes": [k for k, _ in table if k != 0.0],
            "calls": zero + [vals for k, vals in table if k != 0.0]}


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


def _spreads(surface: CallSurface):
    """Call-spread slopes s[j] = (c_j - c_{j+1}) / (x_{j+1} - x_j), j < J, and
    the unnormalised implied law s[j-1] - s[j], taking s = 1 below strike 0
    and s = 0 beyond x_J; one column per maturity."""
    c = surface.prices
    slopes = (c[:-1] - c[1:]) / np.diff(surface.states)[:, None]
    ext = np.vstack([np.ones_like(c[:1]), slopes, np.zeros_like(c[:1])])
    return slopes, ext[:-1] - ext[1:]


def _grade(weak, strict, name, margins, n):
    """Margins of one constraint family at maturity n, entry i at strike
    i + 1: below -TOL a weak violation, up to TOL a strict one."""
    for i in np.flatnonzero(margins <= TOL):
        m = margins[i]
        if m < -TOL:
            weak.append((name, (int(i) + 1, n), float(-m)))
        else:
            strict.append((name, (int(i) + 1, n), float(TOL - m)))


def validate(surface: CallSurface, mode="weak") -> ValidationReport:
    """Static no-arbitrage checks per maturity plus calendar monotonicity.

    Weak mode reports violations beyond TOL; strict mode additionally
    requires every inequality to hold with margin > TOL and a positive
    last-strike call at every maturity.  Each violation is (constraint,
    (strike index, maturity index), magnitude), the magnitude a float.
    """
    if mode not in ("weak", "strict"):
        raise MarketError("mode must be 'weak' or 'strict'")
    c = surface.prices
    J, N = surface.num_strikes, surface.num_maturities
    slopes, law = _spreads(surface)
    # every margin at once; the ordered lists are built only when they are
    # reported: some margin is within TOL of failing, and in weak mode some
    # margin fails by more than TOL
    monotone, convexity = c[:-1] - c[1:], law[1:J]
    calendar = c[1:, 1:] - c[1:, :-1]
    zero_tail = bool(c[J, N - 1] <= TOL)
    if not ((monotone <= TOL).any() or (convexity <= TOL).any()
            or (calendar <= TOL).any() or (slopes[0] >= 1.0 - TOL).any()
            or (c[J] < TOL).any()):
        return ValidationReport("strictly-valid", [], zero_tail)
    if mode == "weak" and not ((monotone < -TOL).any()
                               or (convexity < -TOL).any()
                               or (calendar < -TOL).any()
                               or (slopes[0] > 1.0 + TOL).any()):
        return ValidationReport("weakly-valid", [], zero_tail)
    weak, strict = [], []
    for n in range(N):
        _grade(weak, strict, "monotone-in-strike", monotone[:, n], n)
        s = slopes[0, n]
        if s > 1.0 + TOL:
            weak.append(("slope-bound", (0, n), float(s - 1.0)))
        elif s >= 1.0 - TOL:
            strict.append(("slope-bound", (0, n), float(s - 1.0 + TOL)))
        _grade(weak, strict, "convexity", convexity[:, n], n)
        if c[J, n] < TOL:
            strict.append(("positive-tail", (J, n), float(TOL - c[J, n])))
    for n in range(N - 1):
        _grade(weak, strict, "calendar", calendar[:, n], n)

    # past the two returns above, some margin fails weakly, or strict mode
    # finds one within TOL of failing
    return ValidationReport("invalid", weak if mode == "weak" else weak + strict,
                            zero_tail)


def implied_marginals(surface: CallSurface) -> np.ndarray:
    """The mass matrix: node probabilities from call-spread second
    differences, (J+1) x N, one column per maturity.

    p[0] = 1 - (s0 - c[1])/x1; interior entries are slope differences;
    p[J] is the last call spread per unit strike.  Small negative entries
    (within TOL) are clipped and each column renormalized; the first
    maturity with a larger negative entry or a total off 1 raises.
    """
    law = _spreads(surface)[1]
    p = np.where(law < 0, 0.0, law)
    # one contiguous reduction per maturity: summing down the columns of p
    # in place changes the last bits of the totals
    total = np.ascontiguousarray(p.T).sum(axis=1)
    negative = (law < -TOL).any(axis=0)
    bad = negative | (np.abs(total - 1.0) > 1e-8)
    if bad.any():
        n = int(np.argmax(bad))
        if negative[n]:
            raise MarketError("inconsistent surface: implied probability %.3e"
                              % float(np.min(law[:, n])))
        raise MarketError("implied probabilities sum to %.12g" % total[n])
    return p / total


def extended_marginals(surface: CallSurface) -> np.ndarray:
    """The extended mass matrix, (J+2) x N: the implied marginals plus the
    tail row, which holds the top call's price."""
    return np.vstack([implied_marginals(surface), surface.prices[-1, :]])


def price_piecewise_linear(surface: CallSurface, values, tail_slopes):
    """Static cost of each payoff column: column n pays, at maturity index
    n, the extended linear interpolation of ``values[:, n]`` (one entry per
    lattice state) with slope ``tail_slopes[n]`` beyond the top strike."""
    h = np.asarray(values, dtype=float)
    J, N = surface.num_strikes, surface.num_maturities
    if h.shape != (J + 1, N):
        raise MarketError("values must be (lattice states) x (maturities)")
    rows = extended_marginals(surface)
    return np.array([h[:, n] @ rows[:-1, n] + tail_slopes[n] * rows[-1, n]
                     for n in range(N)])
