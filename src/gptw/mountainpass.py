"""Min-max saddle search: relax paths from 1 to 1 + w_R, then refine the
max-action node to a critical point.

The path functional gamma = inf over paths of the max action along the path
is estimated by the simplified string method (E, Ren & Vanden-Eijnden,
J. Chem. Phys. 126, 164103, 2007): interior nodes take fixed-size
preconditioned descent steps, then the path is reparametrized to uniform L2
arclength; endpoints stay fixed. A stalled string returns like a spent sweep
budget. The max node is refined by Newton-MINRES on the action gradient
(gptw.newton), whose stopping rule implies the integrated certificate, and a
negative Hessian direction off the symmetry directions
(gptw.spectrum.smallest_direction) certifies the saddle index.

Node actions are evaluated once per path, by the function that holds it:
the pipeline evaluates the initial path's, for M; relax_path its start
path's, for the first gamma and the fixed endpoints of every sweep; and
find_saddle the relaxed path's, for gamma and the max node. The saddle is
the CriticalPoint that Newton-MINRES returns, whose action costs one
transform.

The pipeline relaxes the string by nested iteration (Brandt, Math. Comp. 31,
1977): on field.coarsest_grid of the path's top node 1 + w_R, from the path
restricted there by field.resample. The string costs about as many sweeps
on every grid that resolves the path, so the coarse grid finds the pass at
a fraction of the cost. The coarse string is only a start: its interior
nodes are prolonged to the target grid between the path's own endpoints,
and gamma, the saddle's Newton refinement and its index witness are all
taken on the target grid. When the target grid is already the coarsest,
restriction and prolongation return their field unchanged (field.resample),
so the string relaxes on the target grid itself. A start near a basin
boundary may reach a different saddle this way than a relaxation on the
target grid alone. relax_path and find_saddle themselves run on whatever
grid their path lives on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import VortexAnsatz, fitted_vortex_ansatz, vortex_test_function
from .field import ComplexField, TorusGrid, coarsest_grid, fft_forward, resample
from .functionals import Kernel, Params, action, admits
from .minimize import CriticalPoint
from .newton import certified_tol, newton_minres
from .spectrum import smallest_direction


class NotASaddle(RuntimeError):
    """The refined point has no negative Hessian direction."""


@dataclass(frozen=True)
class Path:
    """Ordered fields joining two fixed endpoints on one grid."""

    nodes: tuple[ComplexField, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 3:
            raise ValueError("a path needs at least 3 nodes")
        grid = nodes[0].grid
        if any(n.grid != grid for n in nodes):
            raise ValueError("path nodes must share one grid")

    @property
    def grid(self) -> TorusGrid:
        return self.nodes[0].grid

    def actions(self, p: Params) -> np.ndarray:
        return np.array([action(n, p).action for n in self.nodes])


# Descent steps per interior node and sweep, each -STEP0 * (1 - Lap)^(-1) grad I
# until a rejected sweep halves the step.
NODE_STEPS = 2
STEP0 = 0.5
# A sweep improves gamma when it lowers it by more than REL_TOL * (1 + |gamma|).
REL_TOL = 1e-4


@dataclass
class RelaxOptions:
    """String-method knobs: the sweep budget, and the stall test, which
    ends relax_path after `patience` sweeps in a row that do not improve gamma."""

    sweeps: int = 60
    patience: int = 8

    def __post_init__(self):
        if self.sweeps < 1 or self.patience < 1:
            raise ValueError("sweeps and patience must be >= 1")


@dataclass(frozen=True)
class SaddleResult:
    """A refined saddle; path_actions are the node actions of the path
    handed to find_saddle, gamma their max, and index_witness has Rayleigh
    quotient witness_value < 0. relax_grid is the grid
    mountain_pass_pipeline relaxed the string on, None when find_saddle was
    handed a path relaxed elsewhere."""

    saddle: CriticalPoint
    path_actions: np.ndarray
    index_witness: ComplexField
    witness_value: float
    relax_grid: TorusGrid | None = None

    @property
    def gamma(self) -> float:
        return float(self.path_actions.max())


def init_path(grid: TorusGrid, R: float, node_count: int = 33,
              ansatz: VortexAnsatz | None = None) -> Path:
    """The straight path 1 + t*w_R at uniform t in [0, 1]."""
    if node_count < 3:
        raise ValueError("node_count must be >= 3")
    if ansatz is None:
        ansatz = fitted_vortex_ansatz(R, grid.period)
    top = vortex_test_function(ansatz, grid)
    w = top.values - 1.0
    nodes = []
    for t in np.linspace(0.0, 1.0, node_count):
        nodes.append(ComplexField(grid, 1.0 + t * w))
    return Path(tuple(nodes))


def _reparametrize(values: list[np.ndarray], weight: float) -> list[np.ndarray]:
    """Linear interpolation onto uniform L2 arclength; endpoints untouched."""
    count = len(values)
    seg = np.array([
        np.linalg.norm(values[i + 1] - values[i]) for i in range(count - 1)
    ]) * np.sqrt(weight)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        return values
    targets = np.linspace(0.0, total, count)
    out = [values[0]]
    for i in range(1, count - 1):
        s = targets[i]
        j = min(int(np.searchsorted(cum, s, side="right")) - 1, count - 2)
        span = cum[j + 1] - cum[j]
        t = 0.0 if span <= 0 else (s - cum[j]) / span
        out.append((1.0 - t) * values[j] + t * values[j + 1])
    out.append(values[-1])
    return out


def relax_path(path: Path, p: Params,
               opts: RelaxOptions | None = None) -> tuple[Path, float, np.ndarray]:
    """String-method relaxation of the interior nodes.

    Each sweep moves every interior node by NODE_STEPS fixed-size
    preconditioned descent steps v -> v - step * (1 - Lap)^(-1) grad I(v),
    starting at step STEP0, then reparametrizes the path. gamma never
    increases across accepted sweeps; a sweep whose gamma functionals.admits
    refuses is rejected and the step halved. Returns (relaxed path, gamma estimate,
    node actions of the relaxed path) after opts.sweeps sweeps, or earlier
    once gamma has not improved by REL_TOL in opts.patience sweeps in a row
    (the string has stalled). The node actions of `path` are evaluated
    once, at the start: they give the first gamma, and the endpoints'
    carry over to every sweep.

    A node takes its spectrum once per sweep and carries it through its
    steps by linearity, so a step costs the 2 transforms of
    Kernel.preconditioned_gradient, and a node 2 * NODE_STEPS + 2 per sweep
    with its action after the reparametrization. No spectrum outlives its
    node's steps, so memory stays at one path and its trial copy.
    """
    opts = opts or RelaxOptions()
    grid = path.grid
    eng = Kernel(grid, p)
    # nothing below writes a node array in place, so the path's frozen
    # arrays are shared, not copied
    nodes = [n.values for n in path.nodes]
    endpoints = (path.nodes[0], path.nodes[-1])
    acts = path.actions(p)

    # the endpoints stay fixed, so their actions carry over to every sweep
    ends = acts[0], acts[-1]

    def actions_of(vals):
        return np.array([ends[0], *(eng.action(v)[0] for v in vals[1:-1]), ends[1]])

    gamma = float(acts.max())
    step_scale = STEP0
    stall = 0
    for _ in range(opts.sweeps):
        trial = list(nodes)
        for i in range(1, len(trial) - 1):
            v = trial[i]
            spec = fft_forward(v)
            for _ in range(NODE_STEPS):
                _, z, zs = eng.preconditioned_gradient(v, spec)
                if eng.dot(z, z) == 0.0:
                    break
                v = v - step_scale * z
                zs *= step_scale
                spec -= zs
            trial[i] = v
        trial = _reparametrize(trial, grid.quad_weight)
        trial_acts = actions_of(trial)
        new_gamma = float(trial_acts.max())
        if admits(new_gamma, gamma):
            improved = gamma - new_gamma > REL_TOL * (1.0 + abs(gamma))
            nodes, acts = trial, trial_acts
            gamma = min(gamma, new_gamma)
            stall = 0 if improved else stall + 1
        else:
            step_scale *= 0.5
            stall += 1
        if stall >= opts.patience:
            break
    interior = tuple(ComplexField(grid, v) for v in nodes[1:-1])
    return Path((endpoints[0],) + interior + (endpoints[1],)), gamma, acts


@dataclass
class SaddleOptions:
    """Refinement knobs for the Newton-MINRES refinement and the witness.

    max_iters caps the Newton steps; grad_tol of None means the
    volume-scaled default 1e-8 * T^(N/2), and the refinement target is
    min(grad_tol, newton.CERT_TOL / T^(N/2)) (see find_saddle). seed draws the
    start vector of the index witness's eigensolve.
    """

    max_iters: int = 50
    grad_tol: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


def _pick_max_node(acts: np.ndarray) -> int:
    """The first node within 1e-12 of the max action."""
    return int(np.argmax(acts >= acts.max() - 1e-12))


def find_saddle(path: Path, p: Params, opts: SaddleOptions | None = None) -> SaddleResult:
    """Refine the max-action node of a relaxed path to a critical point and
    certify its index.

    The refinement is Newton-MINRES from the max node (newton_minres). It
    stops at ||grad I|| <= newton.certified_tol(grid, grad_tol), so a
    converged saddle has |int (1-|f|^2) f| <= newton.CERT_TOL; its `iterations`
    count Newton steps. The index witness is the smallest-eigenvalue Hessian
    direction off the phase and translation directions, which carry the
    zero modes of every critical point; when the quadratic form is
    nonnegative there, the Hessian has no negative direction and NotASaddle
    is raised (the path collapsed to a minimizer). The node actions of
    `path` are evaluated once: they pick the max node and give
    SaddleResult.path_actions, whose max is gamma. The saddle is the
    CriticalPoint newton_minres returns: the residual its stopping rule
    tested and the action from one transform.
    """
    opts = opts or SaddleOptions()
    tol = certified_tol(path.grid, opts.grad_tol)
    acts = path.actions(p)
    idx = _pick_max_node(acts)
    point = newton_minres(path.nodes[idx], p, tol, max_steps=opts.max_iters)

    # Index witness: only its Rayleigh quotient matters, a negative value
    # certifies the index.
    witness_value, witness = smallest_direction(point.field, p,
                                                np.random.default_rng(opts.seed))
    if witness_value >= 0:
        raise NotASaddle(
            f"Hessian form nonnegative at the refined point "
            f"(smallest eigenvalue {witness_value:.3e})"
        )
    return SaddleResult(
        saddle=point,
        path_actions=acts,
        index_witness=witness,
        witness_value=witness_value,
    )


def mountain_pass_pipeline(c: float, grid: TorusGrid, R: float,
                           node_count: int = 33,
                           ansatz: VortexAnsatz | None = None,
                           relax_opts: RelaxOptions | None = None,
                           saddle_opts: SaddleOptions | None = None):
    """init -> relax -> refine. Returns (SaddleResult, relaxed path, M).

    M is the max action over the straight initial path on `grid`, the
    T-independent upper bound for gamma, the max node action of the relaxed
    path. The string relaxes on field.coarsest_grid of the path's top node
    1 + w_R, from the path restricted there (see the module docstring). Its
    interior nodes are then prolonged to `grid` between the path's own
    endpoints, so the relaxed path, its node actions, gamma and the saddle
    refined from its max node all live on `grid`; SaddleResult.relax_grid
    names the grid the string relaxed on. When that grid is `grid`, the
    restriction and prolongation return their fields unchanged and this is
    relax_path and find_saddle on `grid`, bit for bit. Node actions are
    evaluated for the initial path (M), the restricted path (relax_path's
    first gamma) and the relaxed path (find_saddle).
    """
    p = Params(c=c)
    path = init_path(grid, R, node_count, ansatz)
    coarse = coarsest_grid(path.nodes[-1])
    start = Path(tuple(resample(n, coarse) for n in path.nodes))
    strung, _, _ = relax_path(start, p, relax_opts)
    interior = tuple(resample(n, grid) for n in strung.nodes[1:-1])
    relaxed = Path((path.nodes[0],) + interior + (path.nodes[-1],))
    result = replace(find_saddle(relaxed, p, saddle_opts), relax_grid=coarse)
    return result, relaxed, float(path.actions(p).max())
