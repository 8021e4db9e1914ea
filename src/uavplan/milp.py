"""Small exact mixed-integer linear programming kernel.

Three entry points:

- :func:`solve_lp_relaxation`: bounded-variable simplex (dense,
  revised, Bland's-rule fallback for anti-cycling) on ``[A | I] x = b``,
  one slack per row. Every start reaches a feasible point one way: a
  bounded dual simplex (largest bound violation leaves, dual ratio test
  enters, Bland's rule on a stall) either ends primal feasible or finds
  a row that proves the bounds and rows have no point. A start that is
  not dual feasible first has the cost of each column that prices out
  shifted until its reduced cost is 0 (dual phase 1 by cost
  modification, Koberstein & Suhl 2007), and primal phase 2 then
  restores the true costs. A cold solve starts with every slack basic,
  so ``B^-1`` is ``I`` and each reduced cost is the column's own cost,
  at a point where each boxed variable sits at the bound its cost
  favours: only a cost that points at an infinite bound is shifted.
  A solve may instead start from a basis the caller passes, such as the
  optimal basis of an earlier solve of the same matrix
  (``Solution.basis``). It is checked once and inverted once; a point
  it fixes that meets every bound and row to 1e-9 goes straight to
  phase 2, any other through the dual simplex.
  The dual's reduced costs, updated at each step and priced afresh at
  each refactorization, close the solve unless a column prices out on
  them or they were shifted; only then does primal phase 2 run.
  Below ``_BLOCK_ROWS`` (38) rows the dense ``[A | I]`` is kept: a
  basis is inverted whole, a pricing or dual pivot row is one product
  with it, and an exchange updates all of ``B^-1``. A larger LP inverts
  only the block of its basic structurals on the rows no basic slack
  covers, multiplies only ``A`` (``c - [y A | y]``), and
  updates ``B^-1`` on the rows where the entering column is nonzero.
  Both loops share one basis exchange and one pair of rise/fall masks,
  built once per solve; in the primal ratio test only a row whose rate
  exceeds 1e-9 of the largest may bound the step.
- :func:`solve_exact`: branch and bound over the same LP solve, with
  best-bound node selection, most-fractional branching, and an initial
  depth-first dive until the first incumbent. Each node keeps the final
  simplex state of its LP: basis, point, reduced costs, masks, and
  below ``_BLOCK_ROWS`` rows ``B^-1``. A child differs from it only in
  the bound of the branched variable, which is fractional, so basic:
  the state stays dual feasible, and its masks still hold. The child
  resumes from it through the dual simplex with the carried masks and
  reduced costs; it inverts and prices the basis again only when it
  has no ``B^-1`` or one ``_REFACTOR_EVERY`` steps old. A model with no
  integer variable goes to :func:`solve_lp_relaxation`.
- :func:`solve_enumerate`: exhaustive scoring of every integer
  assignment, an oracle against ``solve_exact`` that shares no solve
  step with it. It splits the variables into a leading and a trailing
  half (meet in the middle, Horowitz & Sahni 1974), enumerates each
  half once with its partial row sums and objective, and scores blocks
  of leading points against every trailing point by broadcast addition.

Everything is deterministic for a fixed BLAS thread count: identical
models produce identical pivots, node orders, and solutions on every
run (another count may sum a product in another order, and so change
the pivot path). A returned point must satisfy every row to 1e-6, or
the solve raises :class:`SolverError`, and so must the LP point meet
every bound to 1e-6 before it is clipped into them.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VariableDef",
    "LinearConstraint",
    "IPModel",
    "Basis",
    "Solution",
    "SolverError",
    "solve_lp_relaxation",
    "solve_exact",
    "solve_enumerate",
]

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

_FEAS_TOL = 1e-6  # reported feasibility tolerance
_INT_TOL = 1e-6  # integrality tolerance
_DUAL_TOL = 1e-9
_PIVOT_TOL = 1e-10
_ABS_GAP = 1e-9  # nodes whose bound comes this close to the incumbent are pruned
_START_TOL = 1e-9  # a start basis's point must meet bounds and rows this closely
_REFACTOR_EVERY = 64
# from this many rows _factor inverts a block of A; below, where the whole
# inverse costs less than the block route's fixed cost, the whole basis
_BLOCK_ROWS = 38
_STALL_LIMIT = 100


class SolverError(RuntimeError):
    """Internal solver failure (iteration cap, numerical breakdown)."""


@dataclass(frozen=True)
class VariableDef:
    id: int
    name: str
    kind: str
    lower: float
    upper: float


@dataclass(frozen=True)
class LinearConstraint:
    ids: tuple[int, ...]
    coefs: tuple[float, ...]
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""


@dataclass(frozen=True)
class Basis:
    """A simplex basis of one LP, held as values: the basic column of
    each row, and the status of every column of ``[A | I_slack]``. A
    later solve of a matrix with the same rows and columns may start
    from it."""

    columns: np.ndarray  # (rows,) basic column per row
    status: np.ndarray  # (columns,) _AT_LOWER, _AT_UPPER, _FREE or _BASIC


@dataclass(frozen=True)
class _State(Basis):
    """The final simplex state of one solve of a ``_PreparedLP``, from
    which a branch-and-bound child resumes (``_PreparedLP._resume``).
    ``b_inv`` is kept below ``_BLOCK_ROWS`` rows only: above, one per
    open node would take m^2 values each. Solves only read it."""

    x: np.ndarray  # (columns,) the optimal point
    d: np.ndarray  # (columns,) phase-2 reduced costs the solve closed with
    b_inv: np.ndarray | None
    age: int  # steps since b_inv was last factored
    can_rise: np.ndarray  # (columns,) the masks of _masks, kept current
    can_fall: np.ndarray


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded | node_limit
    objective: float | None
    assignment: np.ndarray | None
    nodes_explored: int = 0
    # entering steps over every LP solved: (dual simplex steps, which
    # restore feasibility; primal phase-2 steps)
    simplex_pivots: tuple[int, int] = (0, 0)
    # the root LP's optimal basis: a start for the next solve of the matrix
    basis: Basis | None = None


class IPModel:
    """Minimization model over named bounded variables."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[VariableDef] = []
        self.constraints: list[LinearConstraint] = []
        self.objective_constant = 0.0
        self._objective: dict[int, float] = {}
        self._by_name: dict[str, int] = {}
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- construction ---------------------------------------------------

    def add_variable(
        self,
        name: str,
        kind: str = CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> int:
        if kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ValueError(f"unknown variable kind {kind!r}")
        if name in self._by_name:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind == BINARY:
            lower, upper = max(0.0, lower), min(1.0, upper)
        if not lower <= upper:
            raise ValueError(f"empty bound interval for {name!r}: [{lower}, {upper}]")
        vid = len(self.variables)
        self.variables.append(VariableDef(vid, name, kind, float(lower), float(upper)))
        self._by_name[name] = vid
        return vid

    def add_constraint(
        self,
        terms: Iterable[tuple[int, float]],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        merged: dict[int, float] = {}
        for vid, coef in terms:
            if not 0 <= vid < len(self.variables):
                raise ValueError(f"constraint references unknown variable id {vid}")
            if not math.isfinite(coef):
                raise ValueError(f"non-finite coefficient {coef} for variable {vid}")
            merged[vid] = merged.get(vid, 0.0) + float(coef)
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite right-hand side {rhs}")
        items = sorted((vid, c) for vid, c in merged.items() if c != 0.0)
        self.constraints.append(
            LinearConstraint(
                ids=tuple(v for v, _ in items),
                coefs=tuple(c for _, c in items),
                sense=sense,
                rhs=float(rhs),
                name=name,
            )
        )
        self._flat = None

    def add_objective_term(self, vid: int, coef: float) -> None:
        if not 0 <= vid < len(self.variables):
            raise ValueError(f"objective references unknown variable id {vid}")
        if not math.isfinite(coef):
            raise ValueError(f"non-finite objective coefficient {coef}")
        self._objective[vid] = self._objective.get(vid, 0.0) + float(coef)

    def add_objective_constant(self, value: float) -> None:
        """Decision-independent cost carried through every solve path."""
        if not math.isfinite(value):
            raise ValueError(f"non-finite objective constant {value}")
        self.objective_constant += float(value)

    def variable_id(self, name: str) -> int:
        return self._by_name[name]

    # -- views ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables))
        for vid, coef in self._objective.items():
            c[vid] = coef
        return c

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([v.lower for v in self.variables])
        up = np.array([v.upper for v in self.variables])
        return lo, up

    def _flat_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored coefficient as (row, variable id, coefficient),
        built once and again only after ``add_constraint``."""
        if self._flat is None:
            cons = self.constraints
            rows = np.repeat(np.arange(len(cons)), [len(con.ids) for con in cons])
            ids = np.fromiter(itertools.chain.from_iterable(con.ids for con in cons), np.intp)
            coefs = np.fromiter(itertools.chain.from_iterable(con.coefs for con in cons), float)
            self._flat = rows, ids, coefs
        return self._flat

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        rows, ids, coefs = self._flat_rows()
        a = np.zeros((len(self.constraints), len(self.variables)))
        a[rows, ids] = coefs
        b = np.array([con.rhs for con in self.constraints])
        return a, b, [con.sense for con in self.constraints]

    def max_violation(self, x: np.ndarray) -> float:
        """Largest row residual at ``x``, or NaN when a row's residual is
        NaN, so no tolerance accepts that point."""
        rows, ids, coefs = self._flat_rows()
        cons = self.constraints
        excess = np.bincount(rows, coefs * x[ids], len(cons)) - [con.rhs for con in cons]
        senses = np.array([con.sense for con in cons])
        residual = np.where(senses == "==", np.abs(excess), excess)
        residual[senses == ">="] *= -1.0
        return float(np.max(residual, initial=0.0))

    # -- dump -----------------------------------------------------------

    def to_lp_text(self) -> str:
        """LP-format-style dump (human-oriented; names kept verbatim)."""

        def fmt(value: float) -> str:
            return f"{value:.12g}"

        def row(ids: Sequence[int], coefs: Sequence[float]) -> str:
            parts = []
            for vid, coef in zip(ids, coefs):
                sign = "-" if coef < 0 else "+"
                parts.append(f"{sign} {fmt(abs(coef))} {self.variables[vid].name}")
            text = " ".join(parts) if parts else "0"
            return text[2:] if text.startswith("+ ") else text

        lines = [f"\\ {self.name}", "Minimize"]
        obj_items = sorted(self._objective.items())
        obj_text = row([v for v, _ in obj_items], [c for _, c in obj_items])
        if self.objective_constant:
            obj_text += f" + {fmt(self.objective_constant)}"
        lines.append(" obj: " + obj_text)
        lines.append("Subject To")
        for i, con in enumerate(self.constraints):
            label = con.name or f"c{i}"
            sense = {"<=": "<=", ">=": ">=", "==": "="}[con.sense]
            lines.append(f" {label}: {row(con.ids, con.coefs)} {sense} {fmt(con.rhs)}")
        lines.append("Bounds")
        for v in self.variables:
            lo = "-inf" if v.lower == -math.inf else fmt(v.lower)
            up = "+inf" if v.upper == math.inf else fmt(v.upper)
            lines.append(f" {lo} <= {v.name} <= {up}")
        generals = [v.name for v in self.variables if v.kind == INTEGER]
        binaries = [v.name for v in self.variables if v.kind == BINARY]
        if generals:
            lines.append("Generals")
            lines.extend(f" {name}" for name in generals)
        if binaries:
            lines.append("Binaries")
            lines.extend(f" {name}" for name in binaries)
        lines.append("End")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bounded-variable simplex: bounded dual, then primal phase 2
# ---------------------------------------------------------------------------

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


def _starting_point(
    lo: np.ndarray, up: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nonbasic status and value of each variable at the cold start: a
    free variable at 0, a variable with one infinite bound at its finite
    one, a boxed one with a nonzero cost at the bound its cost favours,
    any other at the bound nearer zero, the lower one on a tie."""
    lo_inf = lo == -math.inf
    boxed = ~lo_inf & (up != math.inf)
    nearer_up = np.where(c == 0.0, np.abs(lo) > np.abs(up), c < 0.0)
    to_upper = lo_inf | (boxed & nearer_up)
    x = np.where(to_upper, up, lo)
    status = to_upper.astype(np.int8)  # _AT_LOWER is 0, _AT_UPPER is 1
    free = lo_inf & (up == math.inf)
    if free.any():
        status[free] = _FREE
        x[free] = 0.0
    return status, x


def _aged(age: int, steps: int) -> int:
    """Steps since the last factorization, after a loop of ``steps``
    steps entered ``age`` steps after one; a loop refactors at every
    ``_REFACTOR_EVERY``-th step of its own."""
    return steps % _REFACTOR_EVERY if steps >= _REFACTOR_EVERY else age + steps


def _masks(
    lo: np.ndarray, up: np.ndarray, status: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The columns that may rise, and those that may fall: a free column
    both ways, one at a bound away from it, a fixed or basic one neither."""
    movable = lo < up
    free = status == _FREE
    return movable & ((status == _AT_LOWER) | free), movable & ((status == _AT_UPPER) | free)


def _prices_out(d: np.ndarray, can_rise: np.ndarray, can_fall: np.ndarray) -> np.ndarray:
    """The columns whose reduced cost pays for a move they may make."""
    return (can_rise & (d < -_DUAL_TOL)) | (can_fall & (d > _DUAL_TOL))


class _PreparedLP:
    """Standard form [A | I_slack] x = b, reusable across branch-and-bound
    nodes (only structural bounds change). A step reads each structural
    column's nonzeros. Below ``_BLOCK_ROWS`` rows the dense ``a_full`` is
    kept, and every product with ``[A | I]`` reads it; from there on
    ``a_full`` is None, those products read only the structural block
    ``a`` and add the slack part, and ``_factor`` inverts only a block
    of ``a``.

    Nothing here changes after construction: each solve keeps its own
    bounds, basis and costs, so solves of one prepared LP may
    interleave."""

    def __init__(self, model: IPModel) -> None:
        a, b, senses = model.constraint_matrix()
        self.m, self.n = a.shape
        self.c_struct = model.objective_vector()
        self.b = b
        self.a = a
        # the dense standard form, below _BLOCK_ROWS rows only (see _factor)
        self.a_full = np.hstack((a, np.eye(self.m))) if self.m < _BLOCK_ROWS else None
        # each structural column's nonzeros: a step takes
        # b_inv[:, rows].dot(values), as .dot costs less than @ on tiny models
        self.col_rows = [col.nonzero()[0] for col in a.T]
        self.col_vals = [col[rows] for col, rows in zip(a.T, self.col_rows)]
        # the bounds of the slacks
        self.lo_tail = np.array([-math.inf if s == ">=" else 0.0 for s in senses])
        self.up_tail = np.array([math.inf if s == "<=" else 0.0 for s in senses])
        self.c_phase2 = np.concatenate((self.c_struct, np.zeros(self.m)))

    def checked(self, start: Basis | None) -> Basis | None:
        """``start`` if it is a well-formed basis of this LP, else None:
        its sizes match, its column indices are integers, every status is
        a known code, and the basic columns are exactly the columns marked
        basic. The public entry points check a caller's start once;
        ``solve`` trusts the starts it is given."""
        if start is None:
            return None
        columns, status = start.columns, start.status
        if (
            columns.shape != (self.m,)
            or status.shape != (self.n + self.m,)
            or columns.dtype.kind not in "iu"
            or not np.array_equal(np.sort(columns), np.flatnonzero(status == _BASIC))
            or not np.isin(status, (_AT_LOWER, _AT_UPPER, _FREE, _BASIC)).all()
        ):
            return None
        return start

    def solve(
        self, lo_struct: np.ndarray, up_struct: np.ndarray, start: Basis | None = None
    ):
        """Returns (status, x_struct, objective, (feasibility, optimality)
        steps, final ``_State`` or None).

        ``start`` is either a caller's basis (well-formed, see
        ``checked``), tried through ``_restart``, or the ``_State`` of an
        earlier solve of this LP, resumed through ``_resume``. When that
        cannot use it, or there is none, the solve starts cold through
        ``_crash``. The dual simplex's reduced costs close the solve
        unless a column prices out on them or ``_dual_start`` shifted
        them; else, and after a primal feasible start, primal phase 2
        runs. The optimal point must meet every structural bound to
        ``_FEAS_TOL`` before it is clipped into them, or the solve raises
        ``SolverError``."""
        lo = np.concatenate((lo_struct, self.lo_tail))
        up = np.concatenate((up_struct, self.up_tail))
        resume = self._resume if isinstance(start, _State) else self._restart
        started = None if start is None else resume(start, lo, up)
        steps1, state = self._crash(lo, up) if started is None else started
        if state is None:
            return "infeasible", None, None, (steps1, 0), None
        basis, status, x, b_inv, can_rise, can_fall, d, age = state

        steps2 = 0
        if d is None or _prices_out(d, can_rise, can_fall).any():
            outcome, steps2, d = self._simplex(lo, up, basis, status, x, b_inv, can_rise, can_fall)
            if outcome == "unbounded":
                return "unbounded", None, None, (steps1, steps2), None
        x_struct = x[: self.n]
        miss = np.maximum(lo_struct - x_struct, x_struct - up_struct).max(initial=0.0)
        if not miss <= _FEAS_TOL:
            raise SolverError(f"solver point misses a bound by {miss:.3g}")
        x_struct = x_struct.clip(lo_struct, up_struct)
        kept_inv = b_inv if self.a_full is not None else None
        return (
            "optimal",
            x_struct,
            float(self.c_struct @ x_struct),
            (steps1, steps2),
            _State(basis, status, x, d, kept_inv, _aged(age, steps2), can_rise, can_fall),
        )

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """``[A | I] x``: each row's structural sum plus its slack."""
        if self.a_full is not None:
            return self.a_full @ x
        return self.a @ x[: self.n] + x[self.n :]

    def _row_times(self, v: np.ndarray) -> np.ndarray:
        """``v [A | I]`` for a row vector ``v``: one product with
        ``a_full`` below ``_BLOCK_ROWS`` rows, else ``[v A | v]``."""
        if self.a_full is not None:
            return v @ self.a_full
        return np.concatenate((v @ self.a, v))

    def _price(self, c: np.ndarray, basis: np.ndarray, b_inv: np.ndarray) -> np.ndarray:
        """Reduced costs of the basis under costs ``c``:
        ``c - c_B B^-1 [A | I]``."""
        return c - self._row_times(c[basis] @ b_inv)

    def _factor(self, basis: np.ndarray, x: np.ndarray, b_inv: np.ndarray) -> None:
        """Invert the basis matrix into ``b_inv`` and solve the rows for
        the basic entries of ``x``, the nonbasic ones held where they are.

        Below ``_BLOCK_ROWS`` rows the basis matrix is taken from
        ``a_full`` and inverted whole. From there on, each basic slack
        covers its own row, and only the block ``K = A[F, S]``
        of the basic structurals ``S`` on the rows ``F`` that no unit
        column covers is inverted: the position of a structural gets its
        row of ``K^-1`` on ``F``, and the unit column of row ``i`` gets
        ``e_i - A[i, S] K^-1`` (block elimination). Raises ``SolverError``
        when the basis matrix is singular, or when the slacks leave other
        than ``|S|`` rows free."""
        try:
            if self.a_full is not None:
                b_inv[:, :] = np.linalg.inv(self.a_full[:, basis])
            else:
                n, m = self.n, self.m
                struct = basis < n
                at, columns = struct.nonzero()[0], basis[struct]
                unit_at = (~struct).nonzero()[0]
                unit_rows = basis[unit_at] - n
                free = np.ones(m, dtype=bool)
                free[unit_rows] = False
                free = free.nonzero()[0]
                if free.size != at.size:
                    raise SolverError("singular basis matrix")
                block_inv = np.linalg.inv(self.a[np.ix_(free, columns)])
                b_inv.fill(0.0)
                b_inv[np.ix_(at, free)] = block_inv
                b_inv[unit_at, unit_rows] = 1.0
                b_inv[np.ix_(unit_at, free)] = -self.a[np.ix_(unit_rows, columns)] @ block_inv
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis matrix") from exc
        x[basis] = 0.0
        x[basis] = b_inv @ (self.b - self._rows(x))

    def _column(self, b_inv: np.ndarray, j: int) -> np.ndarray:
        """``B^-1 a_j``: from the stored nonzeros of a structural column,
        or for a slack a view of a column of ``B^-1``, so read it before
        ``b_inv`` changes."""
        if j < self.n:
            return b_inv[:, self.col_rows[j]].dot(self.col_vals[j])
        return b_inv[:, j - self.n]

    def _restart(self, start: Basis, lo: np.ndarray, up: np.ndarray):
        """Start from a caller's basis ``start`` (or from the basis of a
        ``_State`` that ``_resume`` cannot use) under the bounds
        ``lo``/``up``: invert its basis matrix once, put the nonbasic
        variables at their marked bounds (free ones at 0) and solve the
        rows for the basic ones. If that point meets every bound and row
        to ``_START_TOL``, it is primal feasible: no step is needed, and
        primal phase 2 prices it. Any other point goes on through
        ``_dual_start``.

        Returns what ``_dual_simplex`` returns. Returns None, so that the
        solve starts cold, only when a mark puts a variable at an
        infinite bound or marks one with a finite bound free, the basis
        matrix is singular, or the point misses a row. Reads ``start``
        and never writes it."""
        basis = start.columns.astype(np.intp)  # a copy: the start is never written
        status = start.status.astype(np.int8)
        x = np.where(status == _AT_LOWER, lo, np.where(status == _AT_UPPER, up, 0.0))
        x[basis] = 0.0
        bounded = (lo > -math.inf) | (up < math.inf)
        if not np.isfinite(x).all() or (bounded & (status == _FREE)).any():
            return None
        b_inv = np.empty((self.m, self.m))
        try:
            self._factor(basis, x, b_inv)
        except SolverError:
            return None
        if not (np.abs(self._rows(x) - self.b) <= _START_TOL).all():
            return None
        can_rise, can_fall = _masks(lo, up, status)
        if (x >= lo - _START_TOL).all() and (x <= up + _START_TOL).all():
            return 0, (basis, status, x, b_inv, can_rise, can_fall, None, 0)
        return self._dual_start(lo, up, basis, status, x, b_inv, can_rise, can_fall)

    def _resume(self, state: _State, lo: np.ndarray, up: np.ndarray):
        """Resume from ``state``, the final state of an earlier solve of
        this LP under bounds that differ only on its basic variables, as
        at a child node. Its nonbasic variables still sit at their bounds
        with optimal reduced costs, and its masks still hold, so the dual
        simplex starts from the carried ``x``, ``d`` and masks, untested.
        ``B^-1`` is refactored, and ``d`` priced afresh, when the state
        holds no ``B^-1`` or one ``_REFACTOR_EVERY`` steps old; a point
        that misses a row by ``_START_TOL`` goes to ``_restart``. Returns
        what ``_restart`` returns; copies what it takes from ``state``,
        which siblings share."""
        m = self.m
        basis, status, x = state.columns.copy(), state.status.copy(), state.x.copy()
        can_rise, can_fall = state.can_rise.copy(), state.can_fall.copy()
        if state.b_inv is None or state.age >= _REFACTOR_EVERY:
            b_inv, age = np.empty((m, m)), 0
            try:
                self._factor(basis, x, b_inv)
            except SolverError:
                return None
            d = self._price(self.c_phase2, basis, b_inv)
        else:
            b_inv, d, age = state.b_inv.copy(), state.d.copy(), state.age
        if not (np.abs(self._rows(x) - self.b) <= _START_TOL).all():
            return self._restart(state, lo, up)
        return self._dual_simplex(
            self.c_phase2, lo, up, basis, status, x, b_inv, can_rise, can_fall, d, age
        )

    def _crash(self, lo: np.ndarray, up: np.ndarray):
        """Cold start. Every slack starts basic at the residual of the
        starting point, so ``B^-1`` is ``I``; no slack has a cost, so that
        basis prices every column at its own cost, and it is dual
        feasible unless a cost points at an infinite bound. Goes on
        through ``_dual_start``, and returns what it returns."""
        m, n = self.m, self.n
        status = np.full(n + m, _BASIC, dtype=np.int8)
        x = np.empty(n + m)
        status[:n], x[:n] = _starting_point(lo[:n], up[:n], self.c_struct)
        x[n:] = self.b - self.a @ x[:n]
        masks = _masks(lo, up, status)
        return self._dual_start(lo, up, np.arange(n, n + m), status, x, np.eye(m), *masks)

    def _dual_start(self, lo, up, basis, status, x, b_inv, can_rise, can_fall):
        """The dual simplex from a basis not yet priced, under the phase-2
        costs less the reduced cost of each column that prices out
        (``_prices_out``), which makes that reduced cost 0 (dual phase 1 by
        cost modification, Koberstein & Suhl 2007). When no column prices
        out, the basis is dual feasible and nothing is shifted. When one
        does, the state the dual simplex reaches carries no reduced
        costs, so that primal phase 2 prices it under the true costs. A
        row that proves the bounds and rows cannot be met does so under
        any costs. Returns what ``_dual_simplex`` returns."""
        d = self._price(self.c_phase2, basis, b_inv)
        out = _prices_out(d, can_rise, can_fall)
        shift = np.where(out, d, 0.0)
        steps, state = self._dual_simplex(
            self.c_phase2 - shift, lo, up, basis, status, x, b_inv, can_rise, can_fall, d - shift
        )
        if state is None or not out.any():
            return steps, state
        return steps, (*state[:6], None, state[7])

    def _exchange(self, r, enter, step, w, to_upper, lo, up, basis, status, x, b_inv,
                  can_rise, can_fall) -> None:
        """The basis exchange of both simplex loops. ``enter`` moves by
        ``step`` and the basic variables by ``-step * w``, ``w`` being
        ``B^-1 a_enter``; the variable basic in row ``r`` leaves at its upper
        bound if ``to_upper``, else at its lower one, and ``enter`` takes row
        ``r``. ``B^-1`` gets its rank-1 update: whole below ``_BLOCK_ROWS``
        rows, else on the rows where ``w`` is nonzero."""
        leaving = basis[r]
        x[basis] -= step * w
        x[enter] += step
        x[leaving] = up[leaving] if to_upper else lo[leaving]
        status[leaving] = _AT_UPPER if to_upper else _AT_LOWER
        movable = lo[leaving] < up[leaving]
        can_rise[leaving] = not to_upper and movable
        can_fall[leaving] = to_upper and movable
        can_rise[enter] = can_fall[enter] = False
        basis[r] = enter
        status[enter] = _BASIC
        row = b_inv[r] / w[r]
        if self.a_full is not None:
            b_inv -= w[:, None] * row
        else:
            nz = w.nonzero()[0]
            b_inv[nz] -= w[nz, None] * row
        b_inv[r] = row

    def _dual_simplex(self, c, lo, up, basis, status, x, b_inv, can_rise, can_fall, d, age=0):
        """Bounded dual simplex under the costs ``c``, from the reduced
        costs ``d``, which it trusts to keep their signs, until every
        basic variable meets its bounds to ``_START_TOL``. ``d`` is
        updated at each step and priced afresh at each refactorization,
        and ``age`` counts the steps since ``b_inv`` was factored. Returns
        the steps taken and (basis, status, x, B^-1, can_rise, can_fall,
        d, age) at a primal feasible point, or None in its place when a
        row proves that the bounds and rows cannot be met.

        The leaving row is the basic variable with the largest bound
        violation. The entering column minimises |d_j| / |alpha_rj| over
        the movable nonbasic columns that move that variable back toward
        its bound, with ties to the larger |alpha_rj|. After
        ``_STALL_LIMIT`` steps without a rise in the objective, both
        choices go to the smallest index (Bland's rule for the dual)."""
        n, m = self.n, self.m
        bland = False
        stall = 0
        max_iter = 20000 + 50 * (m + n)
        for iteration in range(max_iter):
            if iteration and iteration % _REFACTOR_EVERY == 0:
                self._factor(basis, x, b_inv)
                d = self._price(c, basis, b_inv)
            x_basic = x[basis]
            below = lo[basis] - x_basic
            violation = np.maximum(below, x_basic - up[basis])
            r = int(violation.argmax()) if m else 0
            if not (m and violation[r] > _START_TOL):
                state = (basis, status, x, b_inv, can_rise, can_fall, d, _aged(age, iteration))
                return iteration, state
            if bland:
                rows = (violation > _START_TOL).nonzero()[0]
                r = int(rows[basis[rows].argmin()])
            leaving = basis[r]
            rise = below[r] > 0.0  # the leaving variable climbs to its lower bound
            # row r reads x_leaving = beta_r - sum_j alpha_rj x_j over the nonbasics
            alpha = self._row_times(b_inv[r])
            toward = -alpha if rise else alpha  # > 0: x_j must rise, < 0: fall
            eligible = (
                ((toward > _PIVOT_TOL) & can_rise) | ((toward < -_PIVOT_TOL) & can_fall)
            ).nonzero()[0]
            if eligible.size == 0:  # no nonbasic can move row r back: infeasible
                return iteration, None
            ratios = np.abs(d[eligible]) / np.abs(alpha[eligible])
            ties = eligible[ratios <= ratios.min() + 1e-12]
            if bland:
                enter = int(ties[0])
            else:
                enter = int(ties[np.abs(alpha[ties]).argmax()])

            w = self._column(b_inv, enter)
            target = lo[leaving] if rise else up[leaving]
            theta = (x[leaving] - target) / w[r]
            d_enter = float(d[enter])
            d -= (d_enter / alpha[enter]) * alpha
            d[enter] = 0.0
            self._exchange(r, enter, theta, w, not rise, lo, up, basis, status, x, b_inv,
                           can_rise, can_fall)

            if theta * d_enter > 1e-12:  # the objective rose
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
        raise SolverError("dual simplex iteration limit exceeded")

    def _simplex(self, lo, up, basis, status, x, b_inv, can_rise, can_fall):
        """Run primal phase 2 to optimality on the current basis.

        Returns the outcome, the number of entering steps taken (a bound
        flip counts as one) and the reduced costs of the last pricing,
        which at an optimum are those of the final basis. A row bounds a
        step only if its rate exceeds ``_PIVOT_TOL`` and 1e-9 of the
        largest, so no rounding-scale entry becomes the pivot."""
        c, n, m = self.c_phase2, self.n, self.m
        bland = False
        stall = 0
        z_prev = float(c @ x)
        max_iter = 20000 + 50 * (m + n)
        for iteration in range(max_iter):
            if iteration and iteration % _REFACTOR_EVERY == 0:
                self._factor(basis, x, b_inv)

            d = self._price(c, basis, b_inv)
            eligible = _prices_out(d, can_rise, can_fall).nonzero()[0]
            if eligible.size == 0:
                return "optimal", iteration, d
            if bland:
                enter = int(eligible[0])
            else:
                enter = int(eligible[np.abs(d[eligible]).argmax()])
            direction = 1.0 if d[enter] < 0 else -1.0

            w = self._column(b_inv, enter)
            # entering variable's own bound gives one candidate step
            own_span = up[enter] - lo[enter]
            theta = own_span if math.isfinite(own_span) else math.inf
            leave_row = -1
            rates = -direction * w
            magnitude = np.abs(rates)
            pivot_tol = max(_PIVOT_TOL, 1e-9 * magnitude.max(initial=0.0))
            # only rows whose basic variable moves can bound the step; a tie
            # goes to the smaller basic index under Bland's rule, else to
            # the larger |w_i|
            for i in (magnitude > pivot_tol).nonzero()[0].tolist():
                rate = rates[i]
                k = basis[i]
                if rate > 0.0:
                    if up[k] == math.inf:
                        continue
                    step = (up[k] - x[k]) / rate
                else:
                    if lo[k] == -math.inf:
                        continue
                    step = (x[k] - lo[k]) / (-rate)
                if step < -1e-12:
                    step = 0.0
                if step < theta - 1e-12 or (
                    abs(step - theta) <= 1e-12
                    and (
                        leave_row < 0
                        or (basis[i] < basis[leave_row] if bland
                            else abs(w[i]) > abs(w[leave_row]))
                    )
                ):
                    theta = min(step, theta)
                    leave_row = i
            if theta == math.inf:
                return "unbounded", iteration, d
            step = direction * max(theta, 0.0)

            if leave_row < 0:
                # bound flip: entering moves to its opposite bound
                x[basis] -= step * w
                status[enter] = _AT_UPPER if direction > 0 else _AT_LOWER
                x[enter] = up[enter] if direction > 0 else lo[enter]
                can_rise[enter] = direction < 0  # it was movable, to enter
                can_fall[enter] = direction > 0
            else:
                if abs(w[leave_row]) < _PIVOT_TOL:
                    raise SolverError("numerically zero pivot")
                self._exchange(leave_row, enter, step, w, rates[leave_row] > 0, lo, up,
                               basis, status, x, b_inv, can_rise, can_fall)

            z = float(c @ x)
            if z < z_prev - 1e-12:
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            z_prev = z
        raise SolverError("simplex iteration limit exceeded")


def _certify(model: IPModel, x: np.ndarray) -> None:
    """Refuse to return a point that breaks a row by more than 1e-6."""
    violation = model.max_violation(x)
    if not violation <= _FEAS_TOL:
        raise SolverError(f"solver point violates a row by {violation:.3g}")


def solve_lp_relaxation(model: IPModel, start_basis: Basis | None = None) -> Solution:
    """Solve the continuous relaxation (integrality dropped).

    ``start_basis`` is a basis of an earlier solve of a model with the
    same rows and columns, such as its ``Solution.basis``. The solve
    starts from it when its point meets this model's bounds and rows,
    and through the dual simplex otherwise; cold only when the basis is
    malformed or singular, marks a variable at an infinite bound or a
    bounded one free, or its point misses a row. The result is the same
    optimum either way, up to ties between optimal vertices."""
    if model.num_variables == 0:
        return Solution(
            status="optimal", objective=model.objective_constant, assignment=np.zeros(0)
        )
    prepared = _PreparedLP(model)
    lo, up = model.bounds_arrays()
    status, x, obj, pivots, state = prepared.solve(lo, up, prepared.checked(start_basis))
    if status != "optimal":
        return Solution(
            status=status, objective=None, assignment=None, simplex_pivots=pivots
        )
    _certify(model, x)
    return Solution(
        status="optimal",
        objective=obj + model.objective_constant,
        assignment=x,
        simplex_pivots=pivots,
        basis=Basis(state.columns, state.status),
    )


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    lo: np.ndarray = field(compare=False)
    up: np.ndarray = field(compare=False)
    x: np.ndarray = field(compare=False)
    state: _State = field(compare=False)  # final simplex state of this node's LP
    branch: int | None = field(compare=False)  # _fractional_index of x


def _fractional_index(
    x: np.ndarray, int_ids: np.ndarray, binary_mask: np.ndarray
) -> int | None:
    """Most fractional integer variable, or None if integral.

    Binaries outrank general integers: fixing an indicator usually
    collapses the linked counting variables through their big-M rows,
    while branching a count leaves the indicator free to go fractional
    again. Ties break toward the smallest variable id."""
    vals = x[int_ids]
    frac = np.abs(vals - vals.round())
    fractional = frac > _INT_TOL
    if not fractional.any():
        return None
    frac_bin = fractional & binary_mask
    pick_from = frac_bin if frac_bin.any() else fractional
    dist = np.where(pick_from, np.abs(frac - 0.5), math.inf)
    return int(int_ids[dist.argmin()])  # argmin takes the first minimum


def solve_exact(
    model: IPModel,
    node_limit: int | None = None,
    warm_start: np.ndarray | None = None,
    start_basis: Basis | None = None,
) -> Solution:
    """Branch and bound to proven optimality, to an absolute gap of 1e-9.

    Best-bound node selection with a depth-first dive until the first
    incumbent; branching prefers fractional binaries over general
    integers. ``node_limit`` caps LP-solved nodes and must be at least
    1; hitting it returns the best incumbent found with status
    ``node_limit``.

    ``warm_start`` seeds the incumbent with a known feasible integer
    assignment so pruning starts at the root. It must satisfy every
    row to 1e-6; a violating warm start raises ``ValueError``.

    ``start_basis`` is offered to the root LP, as in
    ``solve_lp_relaxation``. Every other node resumes from its parent's
    final simplex state through the dual simplex, and cold only when
    that state's basis is singular or misses a row. The result's
    ``basis`` is the root LP's optimal basis.
    """
    if node_limit is not None and node_limit < 1:
        raise ValueError(f"node_limit must be at least 1, got {node_limit}")
    int_ids = np.array(
        [v.id for v in model.variables if v.kind in (BINARY, INTEGER)], dtype=int
    )
    for vid in int_ids:
        v = model.variables[vid]
        if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            raise ValueError(f"integer variable {v.name!r} must have finite bounds")
    lo0, up0 = model.bounds_arrays()
    # integral bound tightening
    lo0[int_ids] = np.ceil(lo0[int_ids] - 1e-9)
    up0[int_ids] = np.floor(up0[int_ids] + 1e-9)
    if np.any(lo0 > up0):
        return Solution(status="infeasible", objective=None, assignment=None)

    if warm_start is not None:
        xw = np.asarray(warm_start, dtype=float)
        if xw.shape != (model.num_variables,):
            raise ValueError(
                f"warm start has shape {xw.shape}, model expects ({model.num_variables},)"
            )
        if not np.isfinite(xw).all():
            raise ValueError("warm start has non-finite values")
        frac_w = np.abs(xw[int_ids] - np.round(xw[int_ids]))
        if frac_w.size and float(frac_w.max()) > 1e-6:
            raise ValueError("warm start assigns non-integer values to integer variables")
        if np.any(xw < lo0 - 1e-6) or np.any(xw > up0 + 1e-6):
            raise ValueError("warm start violates variable bounds")
        if model.max_violation(xw) > 1e-6:
            raise ValueError("warm start violates model constraints")
    if int_ids.size == 0:
        return solve_lp_relaxation(model, start_basis)
    binary_mask = np.array(
        [model.variables[vid].kind == BINARY for vid in int_ids], dtype=bool
    )

    prepared = _PreparedLP(model)
    c = model.objective_vector()
    nodes = 0
    pivots = [0, 0]  # (feasibility, phase-2) entering steps over every node LP
    incumbent_obj = math.inf
    incumbent_x: np.ndarray | None = None

    def solve_node(lo: np.ndarray, up: np.ndarray, start: Basis | None):
        nonlocal nodes
        status, x, obj, (steps1, steps2), state = prepared.solve(lo, up, start)
        nodes += 1
        pivots[0] += steps1
        pivots[1] += steps2
        return status, x, obj, state

    def finish(status: str) -> Solution:
        """The result; an incumbent it returns must satisfy every row."""
        x = incumbent_x if status in ("optimal", "node_limit") else None
        if x is not None:
            _certify(model, x)
        return Solution(
            status=status,
            objective=None if x is None else incumbent_obj + model.objective_constant,
            assignment=x,
            nodes_explored=nodes,
            simplex_pivots=(pivots[0], pivots[1]),
            basis=root_basis,
        )

    def offer(x: np.ndarray) -> None:
        """Round the integer entries of ``x``; keep it if it beats the incumbent."""
        nonlocal incumbent_obj, incumbent_x
        xi = x.copy()
        xi[int_ids] = np.round(xi[int_ids]) + 0.0  # +0.0 clears negative zero
        obj = float(np.dot(c, xi))
        if obj < incumbent_obj - 1e-15:
            incumbent_obj, incumbent_x = obj, xi

    if warm_start is not None:
        offer(xw)

    status0, x0, obj0, root = solve_node(lo0, up0, prepared.checked(start_basis))
    root_basis = None if root is None else Basis(root.columns, root.status)
    if status0 != "optimal":
        return finish(status0)

    if incumbent_x is not None and obj0 >= incumbent_obj - _ABS_GAP:
        # warm start already meets the root bound
        return finish("optimal")

    # Each pass branches ``node`` and solves its children eagerly. Until
    # the first incumbent the search dives into the better child; after
    # that, and whenever a dive dies, it takes the open node of best bound.
    order = itertools.count()  # heap tie-break: older nodes first
    heap: list[_Node] = []
    node: _Node | None = _Node(
        obj0, next(order), lo0, up0, x0, root, _fractional_index(x0, int_ids, binary_mask)
    )
    while node is not None:
        children = []
        if node.branch is None:
            offer(node.x)
        else:
            j, val, state = node.branch, node.x[node.branch], node.state
            # only j changes bounds, and j is basic: a nonbasic integer sits
            # at a bound, which is integral, so j would not be fractional.
            # Both children resume from the parent's state.
            for side in ("down", "up"):
                lo_c, up_c = node.lo.copy(), node.up.copy()
                if side == "down":
                    up_c[j] = math.floor(val)
                else:
                    lo_c[j] = math.ceil(val)
                if lo_c[j] > up_c[j]:
                    continue
                if node_limit is not None and nodes >= node_limit:
                    return finish("node_limit")
                st, x_c, obj_c, state_c = solve_node(lo_c, up_c, state)
                if st != "optimal" or obj_c >= incumbent_obj - _ABS_GAP:
                    continue
                branch_c = _fractional_index(x_c, int_ids, binary_mask)
                if branch_c is None:
                    offer(x_c)
                else:
                    children.append(
                        _Node(obj_c, next(order), lo_c, up_c, x_c, state_c, branch_c)
                    )
        if incumbent_x is None and children:  # dive into the better child
            children.sort()
            node = children.pop(0)
            for child in children:
                heapq.heappush(heap, child)
            continue
        for child in children:
            heapq.heappush(heap, child)
        while heap and heap[0].bound >= incumbent_obj - _ABS_GAP:
            heapq.heappop(heap)  # pruned by the incumbent
        if heap and node_limit is not None and nodes >= node_limit:
            return finish("node_limit")
        node = heapq.heappop(heap) if heap else None
    return finish("optimal" if incumbent_x is not None else "infeasible")


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle
# ---------------------------------------------------------------------------

_ENUM_BLOCK = 100_000  # (leading x trailing) points scored per block


def _grid(lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Every integer point of the box ``[lo, up]``, one per row, in
    lexicographic order (the last coordinate varies fastest)."""
    points = np.zeros((1, 0))
    for low, high in zip(lo, up):
        values = np.arange(low, high + 1).astype(float)
        points = np.hstack(
            (np.repeat(points, len(values), axis=0), np.tile(values, len(points))[:, None])
        )
    return points


def solve_enumerate(model: IPModel, cap: int = 1_000_000) -> Solution:
    """Exhaustively score every integer assignment (oracle path).

    All variables must be integer-kind with finite bounds, and the
    assignment space must not exceed ``cap`` (checked before any work).

    The variables split at the index ``h`` that minimises
    |leading| + |trailing|, the point counts of variables ``[:h]`` and
    ``[h:]`` taken from prefix products of the ranges; ties go to the
    smallest ``h``. Each half is enumerated once in lexicographic order,
    with its partial row sums and partial objective. Blocks of about
    ``_ENUM_BLOCK / |trailing|`` leading points are then scored against
    every trailing point by broadcast addition, so a block holds about
    1e5 points.

    Ties break toward the lexicographically smallest assignment: point
    ``(i_lead, i_trail)`` has the lexicographic index
    ``i_lead * |trailing| + i_trail``, a flat ``argmin`` takes the first
    minimum in a block, and a later block must be strictly better.

    Each row is tested to 1e-9 on the sum of its two partial sums. That
    sum rounds differently from a single dot product, so a point within
    an ulp of an ``==`` row's 1e-9 edge may fall on the other side of
    it than under one dot product.
    """
    for v in model.variables:
        if v.kind == CONTINUOUS:
            raise ValueError("enumeration requires all-integer models")
        if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            raise ValueError(f"variable {v.name!r} must have finite bounds")
    lo = np.array([math.ceil(v.lower - 1e-9) for v in model.variables], dtype=np.int64)
    up = np.array([math.floor(v.upper + 1e-9) for v in model.variables], dtype=np.int64)
    if np.any(lo > up):
        return Solution(status="infeasible", objective=None, assignment=None)
    ranges = (up - lo + 1).astype(np.int64)
    total = 1
    for r in ranges:
        total *= int(r)
        if total > cap:
            raise ValueError(
                f"enumeration space exceeds cap ({cap}); refusing to start"
            )

    sizes = list(itertools.accumulate(map(int, ranges), operator.mul, initial=1))
    h = min(range(len(sizes)), key=lambda i: sizes[i] + total // sizes[i])

    a, b, senses = model.constraint_matrix()
    c = model.objective_vector()
    lead, trail = _grid(lo[:h], up[:h]), _grid(lo[h:], up[h:])
    la, ta = lead @ a[:, :h].T, trail @ a[:, h:].T
    lc, tc = lead @ c[:h], trail @ c[h:]
    best_obj = math.inf
    best_x: np.ndarray | None = None
    block = min(len(lead), max(1, _ENUM_BLOCK // len(trail)))
    # one set of buffers reused by every block: scoring allocates nothing
    lhs_buf = np.empty((block, len(trail)))
    row_buf = np.empty((block, len(trail)), dtype=bool)
    feasible_buf = np.empty((block, len(trail)), dtype=bool)
    for start in range(0, len(lead), block):
        k = min(block, len(lead) - start)
        rows = slice(start, start + k)
        lhs, row_ok, feasible = lhs_buf[:k], row_buf[:k], feasible_buf[:k]
        feasible.fill(True)
        for i, sense in enumerate(senses):
            np.add(la[rows, i, None], ta[None, :, i], out=lhs)
            if sense == "<=":
                np.less_equal(lhs, b[i] + 1e-9, out=row_ok)
            elif sense == ">=":
                np.greater_equal(lhs, b[i] - 1e-9, out=row_ok)
            else:
                np.subtract(lhs, b[i], out=lhs)
                np.less_equal(np.abs(lhs, out=lhs), 1e-9, out=row_ok)
            feasible &= row_ok
        if not feasible.any():
            continue
        objs = np.add(lc[rows, None], tc[None, :], out=lhs)
        objs[np.logical_not(feasible, out=row_ok)] = math.inf
        pos = int(np.argmin(objs))
        if objs.flat[pos] < best_obj:
            best_obj = float(objs.flat[pos])
            i_lead, i_trail = divmod(pos, len(trail))
            best_x = np.concatenate((lead[start + i_lead], trail[i_trail]))
    if best_x is None:
        return Solution(status="infeasible", objective=None, assignment=None)
    return Solution(
        status="optimal",
        objective=best_obj + model.objective_constant,
        assignment=best_x,
        nodes_explored=total,
    )
