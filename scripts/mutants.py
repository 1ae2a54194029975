"""A mutation check of the test suite: does it notice a wrong formula?

    python3 scripts/mutants.py [--rev REV] [--only NAME ...]

Run from inside a kinwb git checkout.  ``MUTANTS`` is a fixed table of
one-text edits to the source, each with the outcome it should have:
``killed``, or ``equivalent: <why>`` for an edit that changes no property
the suite can see.  For each row the script extracts REV (default HEAD;
anything ``git archive`` takes) into a fresh temporary directory, replaces
the one occurrence of the row's old text in its file with the new text,
runs

    python -m pytest -x -q --hypothesis-seed=0 --ignore=tests/test_mutants.py tests

there with PYTHONPATH=src, one mutant at a time, and prints killed or
survived with the first failing test.  Before it runs anything it checks
the whole table against REV: a row whose old text does not occur exactly
once in its file is stale, and the script stops with status 2.

Exit status: 1 when a mutant expected to be killed survived, 0 otherwise.
An "equivalent" mutant that is killed is reported and does not fail the
run.  The Hypothesis seed is fixed, so a verdict does not depend on the
draws.  A mutant takes 15-25 s on a 2-core machine, the table about 6 min,
so this is not part of the tier-1 suite.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import extract, git  # noqa: E402

KILLED = "killed"
# tests/test_mutants.py checks the table against the source, which every
# mutant changes by construction: it would kill them all
TESTS = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--ignore=tests/test_mutants.py", "tests"]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    expected: str  # KILLED, or "equivalent: <why>"


SCATTERING, SPECTRAL = "src/kinwb/scattering.py", "src/kinwb/spectral.py"
KINETIC, MODELS = "src/kinwb/kinetic.py", "src/kinwb/models.py"
MACROLIMIT, QUADRATURE = "src/kinwb/macrolimit.py", "src/kinwb/quadrature.py"
RUNNER = "src/kinwb/runner.py"
MUTANTS = [
    Mutant("root tolerance 1e-14 -> 1e-9", SPECTRAL,
           "_ROOT_RTOL = 1e-14", "_ROOT_RTOL = 1e-9", KILLED),
    Mutant("first-pass return without its bracket test", SPECTRAL,
           "if it == 0 and np.all(inside & converged):", "if it == 0 and np.all(converged):",
           KILLED),
    Mutant("certificate without its rounding term", SCATTERING,
           "rho = np.abs(E, out=flushed).sum(axis=0).max(axis=0) + n * _UNIT * norms",
           "rho = np.abs(E, out=flushed).sum(axis=0).max(axis=0)", KILLED),
    Mutant("certificate cut rho <= 1/2 -> 0.99", SCATTERING,
           "(rho <= 0.5) & np.isfinite(bound)", "(rho <= 0.99) & np.isfinite(bound)", KILLED),
    Mutant("condition limit 1e12 -> 1e14", SCATTERING,
           "_COND_LIMIT = 1e12", "_COND_LIMIT = 1e14", KILLED),
    Mutant("chemo micro block without its zero-mode term", SCATTERING,
           "\n             + zero.T[:, :, None] * model.closure.beta)", ")", KILLED),
    # the first block is overwritten after the third has read it: only it moves
    Mutant("b- for b+ in the first block of B0", SCATTERING,
           "    np.multiply(b_minus, C, out=bottom_right)\n",
           "    np.multiply(b_minus, C, out=bottom_right)\n"
           "    np.multiply(b_minus, C, out=top_left)\n", KILLED),
    Mutant("vfp micro factor E/(2 kappa) halved", SCATTERING,
           "(E / (2.0 * kappa))", "(E / (4.0 * kappa))", KILLED),
    Mutant("switch 1e-8 -> 1e-7", SCATTERING,
           "EPS_SWITCH_FACTOR = 1e-8", "EPS_SWITCH_FACTOR = 1e-7",
           "equivalent: B and B0 agree to O(eps) + u cond(N)/eps on both sides of either "
           "threshold, and the tests place their eps by the factor itself"),
    Mutant("root seed with the sign of eps*lambda1 flipped", SCATTERING,
           "[-(lam0 - eps_lam1)[:, ::-1], eps * lam01[:, None], lam0 + eps_lam1]",
           "[-(lam0 + eps_lam1)[:, ::-1], -eps * lam01[:, None], lam0 - eps_lam1]",
           KILLED),  # rte's zero middle seed turns -0.0, which its roots test sees
    Mutant("chemo micro block halved", SCATTERING,
           "return -((DP * pt2", "return -0.5 * ((DP * pt2", KILLED),
    Mutant("vfp micro block halved", SCATTERING,
           "Y += np.outer(col, closure.gamma[l - 1])",
           "Y += 0.5 * np.outer(col, closure.gamma[l - 1])", KILLED),
    Mutant("b+ and b- swapped", SCATTERING,
           "b_plus, b_minus = bernoulli(-u) / dx, bernoulli(u) / dx",
           "b_plus, b_minus = bernoulli(u) / dx, bernoulli(-u) / dx", KILLED),
    Mutant("certificate decided over the whole batch", SCATTERING,
           "ok = (bound <= _COND_LIMIT).reshape(P, -1).all(axis=-1)",
           "ok = (bound <= _COND_LIMIT).all() & np.ones(P, bool)", KILLED),
    Mutant("limit-inverse iteration count one short", SCATTERING,
           "math.ceil(_LOG_HALF_U / math.log(x))", "math.ceil(_LOG_HALF_U / math.log(x)) - 1",
           KILLED),
    Mutant("a certified member iterated with the batch's largest count", SCATTERING,
           "math.log(x)) for x in rho_p)", "math.log(x)) for x in [max(rho_p)] * len(rho_p))",
           KILLED),
    Mutant("B0 switch read from the batch's first eps", SCATTERING,
           "_members(epsilon < EPS_SWITCH_FACTOR * dx, M)",
           "_members(epsilon[0] + 0.0 * epsilon < EPS_SWITCH_FACTOR * dx, M)", KILLED),
    Mutant("members read the problems cyclically, not in consecutive runs", SCATTERING,
           "return np.repeat(values, M // len(values))",
           "return np.tile(values, M // len(values))", KILLED),
    Mutant("periodic wrap taken across rings", KINETIC,
           "left = cells - cells % Nx + (cells - 1) % Nx", "left = (cells - 1) % n", KILLED),
    Mutant("+v and -v halves of the incoming traces swapped", KINETIC,
           "np.concatenate([plus + left, minus + cells])",
           "np.concatenate([minus + cells, plus + left])", KILLED),
    Mutant("-v rows sent to their cells rolled by +1, not -1", KINETIC,
           "out[K:, ..., :-1], out[K:, ..., -1] = X[K:, ..., 1:], X[K:, ..., 0]",
           "out[K:, ..., 1:], out[K:, ..., 0] = X[K:, ..., :-1], X[K:, ..., -1]", KILLED),
    Mutant("-v half of the static step contracted on faces 0..Nx-1", KINETIC,
           "faces[..., -Nx:], out=rhs[K:]", "faces[..., :Nx], out=rhs[K:]", KILLED),
    Mutant("sign of V in R_eps flipped", KINETIC,
           "epsilon * np.eye(2 * K) + dt / dx * (Vd[:, None] * H)",
           "epsilon * np.eye(2 * K) - dt / dx * (Vd[:, None] * H)", KILLED),
    Mutant("S0 on the diagonal of anti_S0", SCATTERING,
           "np.block([[Z, S0], [S0, Z]])", "np.block([[S0, Z], [Z, S0]])", KILLED),
    Mutant("Bernoulli arguments of sg_flux swapped", MACROLIMIT,
           "(bernoulli(-u) * rho_left - bernoulli(u) * rho_right)",
           "(bernoulli(u) * rho_left - bernoulli(-u) * rho_right)", KILLED),
    Mutant("chemotaxis drift with the sign of the response", MODELS,
           "return -chemo_drift(", "return chemo_drift(", KILLED),
    Mutant("equilibrium normalised by sigma0, not 2 sigma0", KINETIC,
           "(2.0 * float(np.sum(q.weights * m)))", "(float(np.sum(q.weights * m)))", KILLED),
    Mutant("zero-mode scale -eps/lambda0 doubled", SCATTERING,
           "den_p, den_n = Tp * (Tp - lam0 * v), Tn * (Tn - lam0 * -v)",
           "den_p, den_n = Tp * (Tp - lam0 * v) / 2.0, Tn * (Tn - lam0 * -v) / 2.0", KILLED),
    Mutant("velocity scale folded into the +v rows of the static stack only", KINETIC,
           "_cell_stack(grid, model, scale[:, None, None, None])",
           "_cell_stack(grid, model, np.concatenate([scale[:grid.q.K], np.ones(grid.q.K)])"
           "[:, None, None, None])", KILLED),
    Mutant("explicit B term at twice the kinetic CFL", KINETIC,
           "scale = grid.dt / grid.dx * np.concatenate(",
           "scale = 2.0 * grid.dt / grid.dx * np.concatenate(", KILLED),
    Mutant("vfp drift mode at half its spatial growth rate", SCATTERING,
           "np.exp((2.0 * x - epsilon * epsilon * E) * E / (2.0 * kappa))",
           "np.exp((x - epsilon * epsilon * E) * E / (2.0 * kappa))", KILLED),
    Mutant("M built without eps", KINETIC,
           "M = eps * np.linalg.inv(R)", "M = np.linalg.inv(R)", KILLED),
    Mutant("flux projection of chemotaxis stacks dropped", SCATTERING,
           "        q.flux_row,\n", "        None,\n", KILLED),
    Mutant("mass row g built from the nodes, not the weights", QUADRATURE,
           "g = np.concatenate([self.weights, self.weights])",
           "g = np.concatenate([self.nodes, self.nodes])", KILLED),
    Mutant("mass-row correction of M dropped", KINETIC,
           "    M += unit[:, None] * (g - (g[:, None] * M).sum(axis=-2))[..., None, :]\n", "",
           KILLED),
    Mutant("flux projection of the row sums, not the left-stochastic column sums", SCATTERING,
           "(h[:, None] * X).sum(axis=-2, keepdims=True)",
           "(h[:, None] * X).sum(axis=-1, keepdims=True)", KILLED),
    Mutant("batch_size ignores the interface count", RUNNER,
           "BATCH_ENTRIES // (interfaces * (2 * model.q.K) ** 2)",
           "BATCH_ENTRIES // (2 * model.q.K) ** 2", KILLED),
    # the column norms then sum the signed, flushed entries that share |A|'s buffer
    Mutant("_cond_bound flushes before taking the column norms", SCATTERING,
           "    norm_A = flushed.sum(axis=0).max(axis=0)  # of A as it is, before the flush\n"
           "    tiny = flushed < _TINY\n"
           "    np.copyto(flushed, A)  # the stack itself keeps its subnormal entries\n"
           "    np.copyto(flushed, 0.0, where=tiny)\n",
           "    tiny = flushed < _TINY\n"
           "    np.copyto(flushed, A)  # the stack itself keeps its subnormal entries\n"
           "    np.copyto(flushed, 0.0, where=tiny)\n"
           "    norm_A = flushed.sum(axis=0).max(axis=0)\n", KILLED),
]


def stale(tree: Path, mutants) -> list[str]:
    """The names of the rows whose old text does not occur exactly once in
    their file of ``tree`` (or whose file is missing)."""
    out = []
    for m in mutants:
        path = tree / m.path
        if not path.is_file() or path.read_text().count(m.old) != 1:
            out.append(m.name)
    return out


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def run_tests(tree: Path) -> tuple[bool, str | None]:
    """(killed, the first failing test) of the suite in ``tree``.  pytest
    exits 1 on a failed test and 2 on a collection error, which both kill;
    any other status means the suite did not run, and raises."""
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(TESTS, cwd=tree, capture_output=True, text=True, env=env,
                          timeout=1800)
    if proc.returncode not in (0, 1, 2):
        raise RuntimeError(f"the suite exited {proc.returncode}:\n{proc.stdout[-2000:]}"
                           f"{proc.stderr[-2000:]}")
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), None)
    return proc.returncode != 0, first


def verdict(mutant: Mutant, killed: bool) -> tuple[str, bool]:
    """(the line to print, whether the outcome fails the run): only a
    mutant expected to be killed that survives fails it."""
    if mutant.expected == KILLED:
        return ("killed", False) if killed else ("SURVIVED, expected killed", True)
    if killed:
        return f"killed, listed as {mutant.expected}", False
    return f"survived, {mutant.expected}", False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="the revision to mutate (default HEAD)")
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run only these rows")
    args = ap.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = set(args.only or ()) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    root = Path(git("rev-parse", "--show-toplevel"))
    tree = git("rev-parse", "--verify", f"{args.rev}^{{tree}}")
    with tempfile.TemporaryDirectory() as tmp:
        bad = stale(extract(root, tree, Path(tmp) / "tree"), mutants)
    if bad:
        print(f"stale rows, their old text is not in {args.rev} exactly once: {bad}",
              file=sys.stderr)
        return 2
    failed = False
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            copy = extract(root, tree, Path(tmp) / "tree")
            apply(copy, mutant)
            killed, first = run_tests(copy)
        line, fails = verdict(mutant, killed)
        failed |= fails
        print(f"{mutant.name}: {line}" + (f" ({first})" if first else ""), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
