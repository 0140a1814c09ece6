"""Min-max saddle search: relax paths from 1 to 1 + w_R, then refine the
max-action node to a critical point.

The path functional gamma = inf over paths of the max action along the path
is estimated by the simplified string method (E, Ren & Vanden-Eijnden,
J. Chem. Phys. 126, 164103, 2007): interior nodes take fixed-size
preconditioned descent steps, then the path is reparametrized to uniform L2
arclength; endpoints stay fixed. A stalled string returns like a spent sweep
budget. The max node is refined by Newton-MINRES on the action gradient
(gptw.newton), whose stopping rule implies the integrated certificate, and a
negative Hessian direction (gptw.spectrum.smallest_direction) certifies the
saddle index.

The straight path, the string and the saddle lie in the reflection class
H = {psi : psi(-x) = conj psi(x)} of gptw.field, which the action's
symmetries (conjugation and x -> -x each flip the momentum) make a class
whose critical points are critical points of I (Palais, Comm. Math. Phys.
69, 1979). relax_path, newton_minres and smallest_direction each run in
the basis that functionals.Kernel.of picks for their path, start or base,
and return full ComplexFields; in H the witness is the smallest eigenvalue
on H.

Node actions are evaluated once per path, by the function that holds it:
relax_path its start path's and its relaxed path's, which it returns, and
find_saddle the path it is handed, for gamma and the max node. The string
carries each node's spectrum and density from sweep to sweep (relax_path
states the budget), and the pipeline's bound M is the exact quartic of the
straight path 1 + t*w_R. The saddle is the CriticalPoint that
Newton-MINRES returns, whose action costs one transform.

Both stages run by nested iteration (Brandt, Math. Comp. 31, 1977), as
minimize.minimizer_experiment does, on field.coarsest_grid of what they
start from. The pipeline relaxes the straight path sampled on the coarsest
grid that resolves its top node 1 + w_R; the string costs about as many
sweeps on every grid that resolves the path, so the coarse grid finds the
pass at a fraction of the cost. Its interior nodes are then prolonged to
the target grid between the path's own endpoints, where gamma is taken.
find_saddle runs Newton-MINRES on the coarsest grid that resolves the max
node, then on the path's grid from the prolonged point, where the saddle
is taken. Its index witness is nested too: a seeded eigensolve at the
coarse Newton point, whose direction, prolonged, starts the eigensolve at
the saddle, so the path's grid takes a few Hessian products only (4
against 24 from a random start at the 128^2 criterion-6 saddle, plus 23
on 64^2). On a grid that is already the coarsest, each stage runs there
alone (field.resample returns its field unchanged). A start near a basin
boundary may reach a different saddle this way than on the target grid
alone. relax_path runs on whatever grid its path lives on.

The pipeline holds one path at a time: the coarse straight path lives in
the relax_path call alone, and the relaxed coarse string only until its
interior nodes are prolonged; from then on it holds the target-grid path
it returns, which find_saddle reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import VortexAnsatz, fitted_vortex_ansatz, vortex_test_function
from .field import ComplexField, TorusGrid, coarsest_grid, resample
from .functionals import Kernel, Params, action, admits, quiet_overflow
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
    quotient witness_value < 0. coarse is the Newton point that
    find_saddle's coarse stage returned, None when it refined on the
    path's grid only. relax_grid is the grid mountain_pass_pipeline relaxed
    the string on, None when find_saddle was handed a path relaxed
    elsewhere."""

    saddle: CriticalPoint
    path_actions: np.ndarray
    index_witness: ComplexField
    witness_value: float
    coarse: CriticalPoint | None
    relax_grid: TorusGrid | None = None

    @property
    def gamma(self) -> float:
        return float(self.path_actions.max())


def _straight_nodes(grid: TorusGrid, w: np.ndarray, ts) -> tuple[ComplexField, ...]:
    """The fields 1 + t*w on `grid`, one per t."""
    return tuple(ComplexField(grid, 1.0 + t * w) for t in ts)


def init_path(grid: TorusGrid, R: float, node_count: int = 33,
              ansatz: VortexAnsatz | None = None) -> Path:
    """The straight path 1 + t*w_R at uniform t in [0, 1]."""
    if node_count < 3:
        raise ValueError("node_count must be >= 3")
    if ansatz is None:
        ansatz = fitted_vortex_ansatz(R, grid.period)
    w = vortex_test_function(ansatz, grid).values - 1.0
    return Path(_straight_nodes(grid, w, np.linspace(0.0, 1.0, node_count)))


@quiet_overflow
def _straight_path_max(kern: Kernel, w: np.ndarray, node_count: int) -> float:
    """max over uniform t in [0, 1] of I(1 + t*w), the max node action of
    init_path, from the exact quartic of the ray from the constant 1 along
    w (Kernel.ray_coefficients), at one forward transform of w. The
    constant 1 is a critical point of action 0 and density 0, so the
    quartic's value and slope at t = 0 are 0."""
    quartic = kern.ray_coefficients(np.ones_like(w), w, 0.0, 0.0, np.zeros(w.shape),
                                    kern.forward(w))
    return float(np.polyval(quartic[::-1], np.linspace(0.0, 1.0, node_count)).max())


def _reparametrize(values: list[np.ndarray], spectra: list[np.ndarray],
                   dot) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Linear interpolation of the nodes `values` onto uniform arclength in
    the L2 pairing `dot` (Kernel.dot), applied with the same weights to
    their spectra; endpoints untouched."""
    count = len(values)
    seg = np.sqrt([dot(d, d) for d in (values[i + 1] - values[i] for i in range(count - 1))])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        return values, spectra
    targets = np.linspace(0.0, total, count)
    out, out_spectra = [values[0]], [spectra[0]]
    for i in range(1, count - 1):
        s = targets[i]
        j = min(int(np.searchsorted(cum, s, side="right")) - 1, count - 2)
        span = cum[j + 1] - cum[j]
        t = 0.0 if span <= 0 else (s - cum[j]) / span
        out.append((1.0 - t) * values[j] + t * values[j + 1])
        out_spectra.append((1.0 - t) * spectra[j] + t * spectra[j + 1])
    out.append(values[-1])
    out_spectra.append(spectra[-1])
    return out, out_spectra


@quiet_overflow
def relax_path(path: Path, p: Params,
               opts: RelaxOptions | None = None) -> tuple[Path, float, np.ndarray]:
    """String-method relaxation of the interior nodes.

    Each sweep moves every interior node by NODE_STEPS fixed-size
    preconditioned descent steps v -> v - step * (1 - Lap)^(-1) grad I(v),
    starting at step STEP0, then reparametrizes the path. gamma never
    increases across accepted sweeps; a sweep whose gamma functionals.admits
    refuses is rejected and the step halved. Returns (relaxed path, gamma
    estimate, node actions of the relaxed path) after opts.sweeps sweeps,
    or earlier once gamma has not improved by REL_TOL in opts.patience
    sweeps in a row (the string has stalled).

    Every node carries its spectrum and its density 1 - |v|^2 across
    sweeps: a step updates the spectrum by linearity, _reparametrize
    interpolates it with the node, and the node's action reads it and
    returns the density for the next sweep's first step. So each interior
    node costs the 2 transforms of a Kernel.preconditioned_gradient per
    step: 2 * NODE_STEPS per sweep, and 2 * (NODE_STEPS - 1) on the retry
    after a rejected sweep, which reuses the first-step gradients of the
    accepted nodes. The start path costs one transform per node, and the
    returned actions, evaluated on the returned nodes, one per interior
    node.

    The string runs in the basis Kernel.of picks for all its nodes, so one
    node off H puts it on the full grid. In the class basis the transforms
    above are class_forward and class_inverse, the returned actions are
    evaluated there, and the relaxed interior nodes are mirrored to the
    full grid.
    """
    opts = opts or RelaxOptions()
    eng = Kernel.of(p, *path.nodes)
    interior = range(1, len(path.nodes) - 1)
    # nothing below writes a node array or a spectrum in place, so the
    # full path's frozen arrays are shared, not copied
    nodes = [eng.store(n) for n in path.nodes]
    specs = [eng.forward(v) for v in nodes]
    start = [eng.action(v, spec) for v, spec in zip(nodes, specs)]
    acts = np.array([value for value, _ in start])
    dens = [d for _, d in start]
    # the first-step (z, Z) of each interior node, at the accepted nodes
    first = {}

    gamma = float(acts.max())
    step_scale = STEP0
    stall = 0
    for _ in range(opts.sweeps):
        trial, trial_specs = list(nodes), list(specs)
        for i in interior:
            if i not in first:
                first[i] = eng.preconditioned_gradient(nodes[i], specs[i], dens[i])[1:]
            v, spec = nodes[i], specs[i]
            z, zs = first[i]
            for k in range(NODE_STEPS):
                if k:
                    _, z, zs = eng.preconditioned_gradient(v, spec)
                if eng.spectral_dot(zs, zs) == 0.0:
                    break
                v = v - step_scale * z
                spec = spec - step_scale * zs
            trial[i], trial_specs[i] = v, spec
        trial, trial_specs = _reparametrize(trial, trial_specs, eng.dot)
        trial_acts, trial_dens = acts.copy(), list(dens)
        for i in interior:
            trial_acts[i], trial_dens[i] = eng.action(trial[i], trial_specs[i])
        new_gamma = float(trial_acts.max())
        if admits(new_gamma, gamma):
            improved = gamma - new_gamma > REL_TOL * (1.0 + abs(gamma))
            nodes, specs, acts, dens = trial, trial_specs, trial_acts, trial_dens
            first = {}
            gamma = min(gamma, new_gamma)
            stall = 0 if improved else stall + 1
        else:
            step_scale *= 0.5
            stall += 1
        if stall >= opts.patience:
            break
    for i in interior:
        acts[i] = eng.action(nodes[i])[0]
    return Path(path.nodes[:1] + tuple(eng.field(nodes[i]) for i in interior)
                + path.nodes[-1:]), gamma, acts


@dataclass
class SaddleOptions:
    """Refinement knobs for the Newton-MINRES refinement and the witness.

    max_iters caps the Newton steps of each refinement stage; grad_tol of
    None means the volume-scaled default 1e-8 * T^(N/2), and the target of
    both stages is min(grad_tol, newton.CERT_TOL / T^(N/2)) (see
    find_saddle). seed draws the start vector of the index witness's
    first eigensolve: the one at the coarse Newton point when a coarse
    stage ran (the solve on the path's grid then starts from its direction,
    prolonged), else the one solve at the saddle.
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

    The refinement is Newton-MINRES (newton_minres) by nested iteration, as
    in minimize.minimizer_experiment: first on field.coarsest_grid of the
    max node, from the node restricted there, then on the path's grid from
    the coarse point prolonged, with the same tolerance and step cap and no
    fallback; on a grid that is already the coarsest, from the max node
    alone. Both stop at ||grad I|| <= newton.certified_tol(grid, grad_tol),
    which reads the grid's T and N only, so a converged saddle has
    |int (1-|f|^2) f| <= newton.CERT_TOL. The saddle is the path grid's
    CriticalPoint, whose `iterations` count that grid's Newton steps;
    SaddleResult.coarse is the coarse stage's. Each stage runs in H when
    its start lies there (newton_minres). The index witness, taken after
    both stages, is spectrum.smallest_direction's: the smallest Hessian
    eigenvalue on H for a saddle in H, else the smallest off the phase and
    translation directions, which carry the zero modes of every critical
    point. It is solved by nested iteration as well: when a coarse stage
    ran, first at the coarse point from a block drawn from opts.seed, then
    at the saddle from that direction prolonged by field.resample; else
    once at the saddle from the seeded block. Only the saddle's value
    counts: when the quadratic form is nonnegative there, NotASaddle is
    raised (the path collapsed to a minimizer). The node
    actions of `path` are evaluated once: they pick the max node and give
    SaddleResult.path_actions, whose max is gamma.
    """
    opts = opts or SaddleOptions()
    grid = path.grid
    tol = certified_tol(grid, opts.grad_tol)
    acts = path.actions(p)
    top = path.nodes[_pick_max_node(acts)]
    coarse_grid = coarsest_grid(top)
    coarse = None
    if coarse_grid != grid:
        coarse = newton_minres(resample(top, coarse_grid), p, tol, max_steps=opts.max_iters)
        top = resample(coarse.field, grid)
    point = newton_minres(top, p, tol, max_steps=opts.max_iters)

    # Index witness: only its Rayleigh quotient matters, a negative value
    # certifies the index. Both solves follow both Newton stages, so the
    # first Hessian operator built here marks the end of the refinement.
    rng = np.random.default_rng(opts.seed)
    start = None
    if coarse is not None:
        start = resample(smallest_direction(coarse.field, p, rng)[1], grid)
    witness_value, witness = smallest_direction(point.field, p, rng, start=start)
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
        coarse=coarse,
    )


def mountain_pass_pipeline(c: float, grid: TorusGrid, R: float,
                           node_count: int = 33,
                           ansatz: VortexAnsatz | None = None,
                           relax_opts: RelaxOptions | None = None,
                           saddle_opts: SaddleOptions | None = None):
    """init -> relax -> refine. Returns (SaddleResult, relaxed path, M).

    M is the max node action of the straight path init_path(grid, ...), the
    T-independent upper bound for gamma, read off the exact ray quartic of
    1 + t*w_R at one forward transform of w_R; no straight path is built on
    `grid`. The string relaxes from init_path on field.coarsest_grid of the
    top node 1 + w_R, and its interior nodes are prolonged to `grid`
    between the path's own endpoints, so the relaxed path, its node
    actions, gamma and the saddle (find_saddle) all live on `grid`;
    SaddleResult.relax_grid names the grid the string relaxed on. When that
    grid is `grid`, this is relax_path and find_saddle on init_path(grid,
    ...), bit for bit. The coarse straight path and the relaxed coarse
    string are released before find_saddle runs, so the pipeline's memory
    is about one and a half target-grid paths (1.53 traced at 128^2, 33
    nodes), its peak inside relax_path.
    """
    p = Params(c=c)
    if ansatz is None:
        ansatz = fitted_vortex_ansatz(R, grid.period)
    w = vortex_test_function(ansatz, grid).values - 1.0
    ends = _straight_nodes(grid, w, (0.0, 1.0))
    coarse = coarsest_grid(ends[-1])
    # the straight path lies in H, but M keeps the full-grid bits that
    # the tests and `gptw mp` pin
    upper = _straight_path_max(Kernel(grid, p, half=False), w, node_count)
    # the straight path lives in relax_path's frame alone, and the
    # relaxed string only until its interior is prolonged
    strung = relax_path(init_path(coarse, R, node_count, ansatz), p, relax_opts)[0]
    interior = tuple(resample(n, grid) for n in strung.nodes[1:-1])
    del strung
    relaxed = Path(ends[:1] + interior + ends[1:])
    result = replace(find_saddle(relaxed, p, saddle_opts), relax_grid=coarse)
    return result, relaxed, upper
