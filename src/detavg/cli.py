"""Command line front end for sweeps, trajectories, and identity checks.

Four subcommands:

* ``newton-sweep``: step-error table over a grid of machine counts, with a
  JSON sidecar recording the resolved configuration, the coherence of the
  instance, and the exact step's norms.
* ``uq-sweep``: precision-statistic error table over a grid of machine
  counts.
* ``newton-converge``: full distributed Newton trajectories.
* ``verify-identities``: exact enumeration check of the determinant and
  adjugate expectation identities, plus the rank-two counterexample.

Every run is reproducible byte for byte from its flags and seed, at 1 and
at 2 BLAS threads (``OPENBLAS_NUM_THREADS``) alike: the sums that grow with
the input, the gradient's over n rows, the weighted mean's over m machines
and the oracle's over each chunk's outcomes, are ``np.einsum`` calls, which
never call BLAS.  The sums left on BLAS read the same bits at both counts
where measured: the Gram matrix and ``X @ w`` up to n = 200,000 at d = 65,
``u^T M u`` up to d = 3,000, and a 1-D norm up to 10,000 entries, past
which OpenBLAS splits its dot product.  Every norm is of a d-vector, and
:func:`load_data` refuses (d, d) matrices past
:func:`dataio.refuse_above_cap`, so d <= 11,585 and only a norm at d in
(10,000, 11,585] lies past the measured range; ``u^T M u`` is unmeasured at
d in (3,000, 11,585].  Tier-1 checks the 29 pinned outputs at both counts,
and the three einsum sums at n = 200,000 and m = 100,000.
Trials run one after another in this process; ``--threads`` is still
accepted by the three data subcommands so older command lines keep
working, but it has no effect.
A ``--dataset`` FILE's parse is cached beside it as ``.FILE.detavg-cache``
and read back only for the same bytes of FILE and of ``dataio.py``, and
only if the user who runs owns the cache and no one else can write it.
Exit codes: 0 on success, 1 for validation problems, 2 for numerical
failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import dataio, linalg
from .errors import NonFiniteResult, NumericalError
from .newton import MachineConfig, Scheme, SweepRow, coherence, error_sweep, run_distributed_newton
from .objective import Dataset, LossKind, Objective
from .oracle import identity_suite
from .uq import Statistic, UqRow, uq_sweep

NEWTON_SWEEP_HEADER = tuple(f.name for f in fields(SweepRow))
UQ_SWEEP_HEADER = tuple(f.name for f in fields(UqRow))
CONVERGE_HEADER = ("iter", "dist_to_opt", "loss", "scheme")

IDENTITY_TOL = 1e-10
COUNTEREXAMPLE_MIN_GAP = 1e-6


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("no boolean columns in any table")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """Write a table, or raise NonFiniteResult and write nothing if a float
    cell is infinite or NaN: a CSV is complete and finite, or absent."""
    rows = [tuple(row) for row in rows]
    for i, row in enumerate(rows, start=1):
        for name, value in zip(header, row):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise NonFiniteResult(f"row {i} of {path}: {name} is {value}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def resolve_seed(args) -> int:
    """--seed beats the DETAVG_SEED environment variable beats 0.  A negative
    seed is refused naming its source."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("DETAVG_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "DETAVG_SEED"
        except ValueError:
            raise ValueError(f"DETAVG_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def parse_m_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--m expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError("--m is empty")
    return values


def parse_synth(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--synth expects N,D,NOISE, got {text!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise ValueError(f"--synth expects N,D,NOISE, got {text!r}") from None


def _sha256(path) -> bytes:
    import hashlib  # here, not at the top: it adds 1.9 ms to every import

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


# A parse of --dataset FILE is cached beside it as .FILE.detavg-cache: this
# magic, the sha256 of FILE's bytes and of dataio.py's, n and d as 8-byte
# little-endian integers, then X and y as little-endian float64
CACHE_MAGIC = b"detavg parse v2\n"
_KEY_BYTES = len(CACHE_MAGIC) + 64
_HEADER_BYTES = _KEY_BYTES + 16


def _cache_key(path) -> bytes:
    return CACHE_MAGIC + _sha256(path) + _sha256(dataio.__file__)


def cache_path(path) -> Path:
    """Where the parse of the --dataset file ``path`` is cached."""
    return Path(path).with_name(f".{Path(path).name}.detavg-cache")


def _cache_of(path: str) -> tuple[Path, bytes] | None:
    """The cache path of a regular file and the key its header must start
    with, or None, having hashed nothing, for any other path: a FIFO, a
    missing file, or a name under /dev or /proc (``/dev/stdin``), which is a
    stream however it stats."""
    if (Path(os.path.abspath(path)).parts[1:2] in (("dev",), ("proc",))
            or not os.path.isfile(path)):
        return None
    return cache_path(path), _cache_key(path)


def _read_cache(name: Path, key: bytes) -> Dataset | None:
    """The cached parse, or None unless ``name`` is a regular file that this
    user owns and no one else can write, whose header starts with ``key``
    and whose payload holds exactly the n (d + 1) values that its header
    gives.  The key is computed from bytes anyone can read, so a cache that
    another user could have written is never trusted."""
    import stat

    try:
        # nonblocking, so that a FIFO under the name cannot stall the run
        with open(os.open(name, os.O_RDONLY | os.O_NONBLOCK), "rb") as f:
            st = os.fstat(f.fileno())
            if (not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid()
                    or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
                return None
            head = f.read(_HEADER_BYTES)
            if len(head) != _HEADER_BYTES or head[:_KEY_BYTES] != key:
                return None
            values = np.fromfile(f, dtype="<f8")
    except OSError:
        return None
    n, d = (int.from_bytes(head[i:i + 8], "little") for i in (_KEY_BYTES, _KEY_BYTES + 8))
    if values.size != n * (d + 1):
        return None
    # X starts the fresh buffer and y is copied out, so each is allocated
    # as a cold parse allocates it, whatever n and d
    return Dataset(X=values[:n * d].reshape(n, d), y=values[n * d:].copy())


def _write_cache(path: str, name: Path, key: bytes, data: Dataset) -> None:
    """Cache the parse ``data`` of ``path`` as ``name``, if the file still
    has the key it was parsed with and the cache is no larger than the
    file.  It is written to a temporary file beside ``name``, then renamed
    over it or removed; an OSError, as in a read-only directory, skips it.
    Another user's cache under ``name`` is left as it is, before any hash:
    replacing it would make that user's next run miss, and in a sticky
    directory the rename fails."""
    import tempfile

    n, d = data.X.shape
    try:
        if os.path.lexists(name) and os.lstat(name).st_uid != os.geteuid():
            return
        if _HEADER_BYTES + 8 * n * (d + 1) > os.path.getsize(path) or _cache_key(path) != key:
            return
        fd, tmp = tempfile.mkstemp(prefix=f"{name.name}.", dir=name.parent)
        try:
            with open(fd, "wb") as f:
                f.write(key + n.to_bytes(8, "little") + d.to_bytes(8, "little"))
                f.write(data.X.astype("<f8", copy=False))
                f.write(data.y.astype("<f8", copy=False))
            os.replace(tmp, name)
        finally:
            if os.path.lexists(tmp):
                os.unlink(tmp)
    except OSError:
        pass


def load_data(args, seed: int) -> tuple[Dataset, dict]:
    """The data of a data subcommand and its source for the sidecar.  A
    --dataset file is read from its parse cache when that holds a parse of
    the same bytes by the same parser (see :func:`_read_cache`), and parsed
    otherwise; either way its d x d matrices are refused past the cap, and
    a parse is cached only after that check."""
    if (args.dataset is None) == (args.synth is None):
        raise ValueError("exactly one of --dataset or --synth is required")
    if args.dataset is not None:
        cache = _cache_of(args.dataset)
        data = _read_cache(*cache) if cache else None
        parsed = data is None
        if parsed:
            data = dataio.load_libsvm(args.dataset)
        dataio.refuse_above_cap(data.d ** 2, f"d={data.d} features: a {data.d}x{data.d} matrix")
        if cache and parsed:
            _write_cache(args.dataset, *cache, data)
        return data, {"dataset": args.dataset}
    n, d, noise = parse_synth(args.synth)
    # a d below 1 makes no matrix; synth_regression refuses it by name
    dataio.refuse_above_cap(max(d, 0) ** 2, f"d={d} features: a {d}x{d} matrix")
    data = dataio.synth_regression(n, d, noise, seed=seed)
    return data, {"synth": {"n": n, "d": d, "noise_sd": noise}}


def make_objective(args, data: Dataset) -> tuple[Objective, dict]:
    loss = LossKind(args.loss)
    if loss is LossKind.LOGISTIC and not np.all(np.isin(data.y, (0.0, 1.0))):
        # real-valued labels (synthetic or regression files) binarize by sign
        data = Dataset(X=data.X, y=(data.y > 0).astype(float))
    if args.lam == "auto":
        lam = 1.0 / data.n
    else:
        try:
            lam = float(args.lam)
        except ValueError:
            raise ValueError(f"--lambda expects a number or 'auto', got {args.lam!r}") from None
    obj = Objective(data=data, loss=loss, lam=lam)
    return obj, {"loss": loss.value, "lambda": lam}


def _schemes(name: str) -> list[Scheme]:
    if name == "both":
        return [Scheme.DETERMINANTAL, Scheme.UNIFORM]
    return [Scheme(name)]


def cmd_newton_sweep(args) -> int:
    seed = resolve_seed(args)
    data, source = load_data(args, seed)
    obj, obj_meta = make_objective(args, data)
    m_list = parse_m_list(args.m)
    schemes = _schemes(args.scheme)
    dataio.refuse_above_cap(len(schemes) * len(m_list) * args.trials * len(NEWTON_SWEEP_HEADER),
                            f"the table of --trials {args.trials}")
    w0 = np.zeros(obj.d)
    rows = error_sweep(obj, w0, args.k, m_list, args.trials, schemes, seed)
    H = obj.hessian(w0)
    step = linalg.solve_psd(H, obj.gradient(w0))
    step_norm = linalg.norm(step)
    if not math.isfinite(step_norm):
        raise NonFiniteResult(f"the exact step's norm is {step_norm}")
    meta = {
        "command": "newton-sweep",
        "source": source,
        "n": obj.data.n,
        "d": obj.data.d,
        **obj_meta,
        "k": args.k,
        "m_list": m_list,
        "trials": args.trials,
        "scheme": args.scheme,
        "seed": seed,
        "coherence": coherence(obj, w0),
        "step_norm_euclidean": step_norm,
        "step_norm_hessian": linalg.mahalanobis_norm(step, H),
    }
    out = Path(args.out)
    write_csv(out, NEWTON_SWEEP_HEADER, map(astuple, rows))
    try:
        with open(out.with_suffix(".meta.json"), "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError:
        out.unlink()  # a table without its sidecar is not a result
        raise
    return 0


def cmd_uq_sweep(args) -> int:
    seed = resolve_seed(args)
    data, _ = load_data(args, seed)
    m_list = parse_m_list(args.m)
    dataio.refuse_above_cap(len(m_list) * args.trials * len(UQ_SWEEP_HEADER),
                            f"the table of --trials {args.trials}")
    rows = uq_sweep(data, args.k, args.eta, m_list, args.trials, Statistic(args.statistic), seed)
    write_csv(Path(args.out), UQ_SWEEP_HEADER, map(astuple, rows))
    return 0


def cmd_newton_converge(args) -> int:
    seed = resolve_seed(args)
    data, _ = load_data(args, seed)
    obj, _ = make_objective(args, data)
    m_list = parse_m_list(args.m)
    if len(m_list) != 1:
        raise ValueError(f"newton-converge uses a single machine count, got --m {args.m!r}")
    schemes = _schemes(args.scheme)
    dataio.refuse_above_cap(len(schemes) * (args.iters + 1) * len(CONVERGE_HEADER),
                            f"the table of --iters {args.iters}")
    w0 = np.zeros(obj.d)
    rows = []
    w_star = None  # the first scheme's run finds it for every scheme
    for scheme in schemes:
        cfg = MachineConfig(m=m_list[0], k=args.k, scheme=scheme)
        traj = run_distributed_newton(obj, w0, args.iters, cfg, seed, w_star=w_star)
        w_star = traj.w_star
        for i in range(len(traj.dist_to_opt)):
            rows.append((i, float(traj.dist_to_opt[i]), float(traj.losses[i]), traj.scheme))
    write_csv(Path(args.out), CONVERGE_HEADER, rows)
    return 0


def cmd_verify_identities(args) -> int:
    seed = resolve_seed(args)
    report = identity_suite(models=args.models, max_n=args.max_n, max_d=args.max_d, seed=seed)
    lines = [
        ("E[det A] = det(E[A])", report.max_dev_det),
        ("E[adj A] = adj(E[A])", report.max_dev_adjugate),
        ("E[det(A) inv(A)] / E[det A] = inv(E[A])", report.max_dev_weighted_inverse),
        ("hand-checked instance (E[det] = 0.75)", report.hand_instance_dev),
    ]
    print(f"checked {report.models} random rank-one models (seed {seed})")
    ok = True
    for name, dev in lines:
        passed = dev <= IDENTITY_TOL
        ok = ok and passed
        print(f"  {name:<42} max deviation {dev:.3e}  {'ok' if passed else 'FAIL'}")
    counter_ok = report.counterexample_gap >= COUNTEREXAMPLE_MIN_GAP
    ok = ok and counter_ok
    print(
        f"  {'rank-2 component counterexample':<42} gap {report.counterexample_gap:.3e}  "
        f"{'expected-fail confirmed' if counter_ok else 'COUNTEREXAMPLE MISSING'}"
    )
    return 0 if ok else 2


def _add_data_flags(sp: argparse.ArgumentParser, with_loss: bool) -> None:
    sp.add_argument("--dataset", metavar="PATH", help="sparse label index:value file")
    sp.add_argument("--synth", metavar="N,D,NOISE", help="synthetic Gaussian instance")
    if with_loss:
        sp.add_argument("--loss", choices=("square", "logistic"), default="square")
        sp.add_argument(
            "--lambda", dest="lam", default="auto", metavar="X|auto",
            help="ridge weight; 'auto' means 1/n",
        )
    sp.add_argument("--k", type=int, required=True, help="expected local sample size")
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed; falls back to DETAVG_SEED, then 0")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--out", required=True, metavar="PATH", help="output CSV path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detavg",
        description="Determinant-weighted averaging of subsampled Newton and precision estimates",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("newton-sweep", help="step-error table over machine counts")
    _add_data_flags(sp, with_loss=True)
    sp.add_argument("--m", required=True, metavar="LIST", help="machine counts, e.g. 8,16,32")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--scheme", choices=("uniform", "determinantal", "both"), default="both")
    sp.set_defaults(func=cmd_newton_sweep)

    sp = sub.add_parser("uq-sweep", help="precision-statistic error table")
    _add_data_flags(sp, with_loss=False)
    sp.add_argument("--m", required=True, metavar="LIST", help="machine counts, e.g. 16,64,256")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--eta", type=float, default=1.0, help="ridge scale; local ridge is eta/sqrt(m)")
    sp.add_argument("--statistic", choices=("trace", "diagonal"), default="trace")
    sp.set_defaults(func=cmd_uq_sweep)

    sp = sub.add_parser("newton-converge", help="distributed Newton trajectories")
    _add_data_flags(sp, with_loss=True)
    sp.add_argument("--m", required=True, metavar="M", help="machine count (single value)")
    sp.add_argument("--iters", type=int, default=10)
    sp.add_argument("--scheme", choices=("uniform", "determinantal", "both"),
                    default="determinantal")
    sp.set_defaults(func=cmd_newton_converge)

    sp = sub.add_parser("verify-identities", help="exact expectation-identity checks")
    sp.add_argument("--models", type=int, default=50)
    sp.add_argument("--max-n", type=int, default=8,
                    help="largest component count per model, 2..12 (3^max_n outcomes "
                         "must fit the 2^20 enumeration cap)")
    sp.add_argument("--max-d", type=int, default=3,
                    help="largest model dimension, 1..5 (cofactor expansion costs d!)")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_verify_identities)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the validation exit code
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
