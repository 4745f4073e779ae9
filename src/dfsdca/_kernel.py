"""Build, load and call the compiled kernels in ``_kernel.c``: the dfSDCA
step kernel, the tau-subset draws, the synthetic generator's row draws, the
LIBSVM parser, the pass that checks a Dataset's CSR arrays and takes its
row norms, the row pass with its loss epilogue, the transpose, and the
reference oracle: its Hessian products and its whole Newton loop.

A matrix is bound for C once, as a :class:`Csr` (a Dataset holds its
rows' and its transpose's), and a loss as a :class:`Loss` (a ``LossSpec``
holds one): the row pass, the step kernel (:func:`steps`) and the Hessian
products read those bindings, so each array is checked once. Every array
address goes to C through :func:`_address`.

This module imports nothing from the package: the dataset and solver
modules call it, and turn what it reports into their own errors.

The draws call numpy's own C distributions, so the library links numpy's
static ``libnpyrandom.a`` (numpy's symbols stay hidden in it) and compiles
against numpy's headers. It is built on first use with gcc and cached as
``_kernel-<key>.so``, where the key is the sha256 of the C source, the
compiler flags and the bytes of ``libnpyrandom.a``. So an edited source or
another numpy gets a new cache entry, and a stale library is never loaded.
The cache is this package's ``__pycache__`` directory or, where that
cannot be written (an install into a read-only site-packages),
``~/.cache/dfsdca``. The library is written to a temporary file first and
moved into place, so a concurrent or interrupted build never leaves a
partial file under the final name.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
#: no fused multiply-adds: they would change the iterates' rounding
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")
#: numpy's distributions (random_bounded_uint64, ...), as a static library
NPYRANDOM = Path(np.get_include()).parents[1] / "random" / "lib" / "libnpyrandom.a"

# return codes of the dfsdca_* functions
OK, OUT_OF_RANGE, REPEATED, GUARD, BAD_OFFSETS, NO_MEMORY = 0, 1, 2, 3, 4, 5
BAD_LABEL, NO_COLON, BAD_TOKEN, NOT_ONE_BASED = 6, 7, 8, 9
INDEX_TOO_LARGE, NOT_INCREASING, NON_ASCII = 10, 11, 12
#: the oracle's outcomes besides OK (converged) and NO_MEMORY, as
#: :meth:`Hessian.newton` reports them
STALLED, NEWTON_CAP, NO_DECREASE = 13, 14, 15
CONCAVE_COORDINATE, CONCAVE_DIRECTION, CG_CAP = 16, 17, 18
#: the step kernel's loss-kind codes, in the order of ``losses.KINDS``
LOGISTIC, SQUARED, QUADFAM = 0, 1, 2
#: the Hessian kernel's pass kinds
PRODUCT, DIAGONAL = 0, 1
#: what ``Loss.at`` gives for one example: phi_i or -phi_i'
VALUE, ALPHA = 0, 1
#: the largest n, d and nnz whose CSR index arrays the step kernel reads
INT32_MAX = 2**31 - 1
#: the fewest bytes per parser piece: starting and joining a thread takes
#: about 50 us on 2 cores, what parsing some 15 KB takes, and a piece this
#: size about 1 ms
MIN_PIECE = 256 * 1024

#: the fewest CSR entries for which the oracle's Hessian products take a
#: helper thread: on 2 cores a thread start and join costs 40-120 us, and
#: the helper saved nothing in oracle calls on 4000-7000 entries, 0-13 %
#: at 10 000 and 10-22 % from 15 000 on
MIN_HESSIAN_NNZ = 10_000

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_BYTE = ctypes.c_char
_vp, _i64, _dbl, _int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
_bad = ctypes.POINTER(_i64)

#: the dfsdca_* functions of ``_kernel.c``, each name without that prefix:
#: the return type, then the argument types, as :func:`_load` binds them
SIGNATURES = {
    "steps": (_int, _vp, _vp, _vp, _dbl, _dbl, _dbl, _i64, _vp, _vp, _i64, _vp, _vp, _bad),
    "tau_subsets": (_int, _vp, _i64, _i64, _i64, _vp),
    "choice_rows": (_int, _vp, _i64, _i64, _vp, _vp, _vp, _bad),
    "libsvm_bounds": (None, _vp, _i64, _i64, _vp),
    "parse_libsvm": (_int, _vp, _i64, _vp, _vp, _vp, _vp, _vp, _vp, _vp),
    "csr_pass": (None, _i64, _i64, _i64, _vp, _vp, _vp, _vp, _vp, _vp, _vp, _vp, _vp),
    "rows": (None, _vp, _vp, _vp, _i64, _vp, _vp, _vp, _vp, _vp),
    "loss_at": (_dbl, _vp, _i64, _dbl, _i64),
    "transpose": (None, _vp, _i64, _vp, _vp, _vp),
    "hessian_open": (_vp, _vp, _vp, _dbl, _vp, _i64),
    "hessian_apply": (None, _vp, _i64, _i64, _i64),
    "hessian_close": (_i64, _vp),
    "newton": (_int, _vp, _vp, _vp, _vp, _vp, _vp, _vp),
}

#: the loaded library, once the first kernel call needs it
_lib = None


class KernelBuildError(RuntimeError):
    """The compiled kernels could not be built or loaded."""


def _compiler() -> str | None:
    return shutil.which("gcc")


def _user_cache() -> Path:
    """The per-user cache directory, used when the package's own cannot
    be written."""
    return Path(os.path.expanduser("~/.cache/dfsdca"))


def build(source: Path, *caches: Path) -> Path:
    """Path of the compiled kernel for ``source``: the entry for the same
    source and flags in the first of ``caches`` that holds one, or else a
    new one compiled into the first of them that can be written."""
    text = Path(source).read_bytes()
    try:
        npyrandom = NPYRANDOM.read_bytes()
    except OSError as exc:
        raise KernelBuildError(
            f"the dfsdca kernels link numpy's {NPYRANDOM}, which cannot be "
            f"read: {exc}"
        ) from exc
    key = hashlib.sha256(
        text + "\0".join(FLAGS).encode() + npyrandom
    ).hexdigest()[:20]
    name = f"_kernel-{key}.so"
    for cache in caches:
        if (Path(cache) / name).is_file():
            return Path(cache) / name
    gcc = _compiler()
    if gcc is None:
        raise KernelBuildError(
            "the dfsdca kernels are compiled on first use and need gcc, "
            "but no gcc was found on PATH"
        )
    errors = []
    for cache in caches:
        target = Path(cache) / name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".", suffix=".so")
            break
        except OSError as exc:
            errors.append(f"{cache}: {exc}")
    else:
        raise KernelBuildError(
            "cannot write the compiled kernels to any cache directory: "
            + "; ".join(errors)
        )
    os.close(fd)
    try:
        # compile the bytes that were hashed, not whatever the file holds now
        proc = subprocess.run(
            [gcc, *FLAGS, "-I", np.get_include(), "-o", tmp, "-x", "c", "-",
             "-x", "none", str(NPYRANDOM), "-lm", "-Wl,--exclude-libs,ALL"],
            input=text, capture_output=True,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"gcc failed to build {source}:\n"
                + proc.stderr.decode(errors="replace")
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load():
    global _lib
    if _lib is None:
        path = build(SOURCE, CACHE, _user_cache())
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise KernelBuildError(f"cannot load {path}: {exc}") from exc
        for name, (restype, *argtypes) in SIGNATURES.items():
            fn = getattr(lib, "dfsdca_" + name)
            fn.restype, fn.argtypes = restype, argtypes
        _lib = lib
    return _lib


def _check(name: str, a, dtype, size: int | None = None, write: bool = False,
           ndim: int = 1, kernel: str = "step"):
    if (
        not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != ndim
        or not a.flags.c_contiguous or (size is not None and a.size != size)
        or (write and not a.flags.writeable)
    ):
        want = f"{'writeable ' if write else ''}C-contiguous {ndim}-d {dtype}"
        if size is not None:
            want += f" array of length {size}"
        got = (f"{a.dtype} shape {a.shape}" if isinstance(a, np.ndarray)
               else type(a).__name__)
        raise ValueError(f"{kernel} kernel: {name} must be a {want}, got {got}")


def _address(a: np.ndarray) -> int:
    """A C-contiguous array's address; ctypes' view of a writeable buffer
    gives it three times faster than ``a.ctypes.data``."""
    if a.flags.writeable and a.size:
        return ctypes.addressof(_BYTE.from_buffer(a))
    return a.ctypes.data


class _Struct(ctypes.Structure):
    """``struct csr`` or ``struct loss`` in ``_kernel.c``: rows or a loss
    kind's code, then three arrays."""
    _fields_ = [("head", ctypes.c_int64), ("a", ctypes.c_void_p),
                ("b", ctypes.c_void_p), ("c", ctypes.c_void_p)]


class Csr:
    """The int32 CSR ``arrays`` of a rows x cols matrix, bound for the row
    pass, the step kernel and the Hessian, which read them unchecked: made
    only by :func:`csr_pass`, which checks them, or :meth:`transpose`. Each
    call allocates its outputs, so threads may share a Csr."""

    def __init__(self, arrays: tuple, cols: int, ptrs: tuple):
        self.arrays, self.rows, self.cols = arrays, arrays[0].size - 1, cols
        self._struct = _Struct(self.rows, *ptrs)
        self._ptr, self._lib = ctypes.addressof(self._struct), _load()

    def product(self, x, name: str, loss: "Loss | None" = None) -> np.ndarray:
        """``A @ x`` as row 0 of a new array, rows summed left to right from
        0.0, as (so with the bits of) scipy's ``csr_matvec``, for ``x`` of
        cols floats (else ValueError naming ``name``); with a :class:`Loss`
        of the rows' examples, their losses at it as row 1."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ValueError(f"{name} must be a 1-d vector of length {self.cols}, "
                             f"got shape {x.shape}")
        if loss is not None and loss.n != self.rows:
            raise ValueError(f"row pass: {loss.n} losses for {self.rows} rows")
        x, out = np.ascontiguousarray(x), np.empty((1 + (loss is not None), self.rows))
        at = _address(out)
        with_loss = (None, None) if loss is None else (loss._ptr, at + 8 * self.rows)
        self._lib.dfsdca_rows(self._ptr, _address(x), with_loss[0], self.rows, None, at,
                              with_loss[1], None, None)
        return out

    def transpose(self) -> "Csr":
        """The transpose, by one stable counting pass, so with the arrays
        (frozen) of scipy's ``csr_tocsc``."""
        nnz = self.arrays[1].size
        arrays = np.empty(self.cols + 1, _I32), np.empty(nnz, _I32), np.empty(nnz)
        ptrs = tuple(map(_address, arrays))
        self._lib.dfsdca_transpose(self._ptr, self.cols, *ptrs)
        for a in arrays:
            a.flags.writeable = False
        return Csr(arrays, self.rows, ptrs)


class Loss:
    """A loss kind's code (``LOGISTIC``, ``SQUARED`` or ``QUADFAM``) and the
    parameters of its n examples, ``y``, or ``c`` and ``b``, checked and
    bound for the loss pass and the step kernel. Threads may share a Loss."""

    def __init__(self, kind: int, n: int, y=None, c=None, b=None):
        if kind not in (LOGISTIC, SQUARED, QUADFAM):
            raise ValueError(f"loss kernel: unknown loss kind code {kind!r}")
        params = {"y": y} if kind != QUADFAM else {"c": c, "b": b}
        for name, arr in params.items():
            _check(name, arr, _F64, n, kernel="loss")
        # held so that the pointers stay valid
        self.n, self._arrays = n, tuple(params.values())
        ptrs = {name: _address(arr) for name, arr in params.items()}
        self._struct = _Struct(kind, ptrs.get("y"), ptrs.get("c"), ptrs.get("b"))
        self._ptr, self._lib = ctypes.addressof(self._struct), _load()

    def __call__(self, x, idx=None, *, values: bool = False, alpha: bool = False,
                 curvatures: bool = False) -> np.ndarray:
        """Those asked for of phi_i, -phi_i' and phi_i'', as the rows of a
        new array, at the margins ``x`` of the examples ``np.arange(n)[idx]``
        (all if idx is None), one each (else ValueError)."""
        shape, at_idx = (self.n,), None
        if idx is not None:
            idx = np.arange(self.n)[idx]
            shape, at_idx = idx.shape, _address(idx)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != shape or len(shape) != 1:
            raise ValueError(f"loss kernel: margins of shape {x.shape} for examples "
                             f"of shape {shape}")
        x, out = np.ascontiguousarray(x), np.empty((values + alpha + curvatures, x.size))
        at, ptrs = _address(out), []
        for want in (values, alpha, curvatures):
            ptrs.append(at if want else None)
            at += 8 * x.size * want
        self._lib.dfsdca_rows(None, None, self._ptr, x.size, at_idx, _address(x), *ptrs)
        return out

    def at(self, i: int, x: float, which: int) -> float:
        """The ``VALUE`` or ``ALPHA`` (-phi_i') of example ``range(n)[i]`` at
        the margin ``x``, by one call with no array."""
        return self._lib.dfsdca_loss_at(self._ptr, range(self.n)[i], x, which)


def _draw(rng: np.random.Generator, fn, *args) -> int:
    """``fn(bitgen, *args)`` on the bit generator under ``rng``, holding
    its lock as numpy's own draws do: ctypes releases the GIL."""
    bitgen = rng.bit_generator
    with bitgen.lock:
        return fn(bitgen.ctypes.bit_generator, *args)


def tau_subsets(rng: np.random.Generator, units: int, out) -> None:
    """Fill the rows of ``out``, a writeable C-contiguous (k, tau) int64
    array, with k uniform tau-subsets of ``range(units)``, in slot order.

    Slot c of a row draws t uniform in [0, units - tau + c], as
    ``rng.integers(0, units - tau + c + 1)`` would, and keeps t, or
    units - tau + c if t is already in the row (Floyd's algorithm). The
    draws come from numpy's own C code, row after row, so the rows and the
    generator's next state equal those of one ``rng.integers`` call over
    the (k, tau) bounds followed by that rule. Raises ValueError, before
    any draw, if ``out`` is not such an array or tau is not in [1, units].
    """
    _check("out", out, _I64, write=True, ndim=2, kernel="subset")
    k, tau = out.shape
    if not 1 <= tau <= units:
        raise ValueError(f"subset kernel: tau={tau} is not in [1, units={units}]")
    if _draw(rng, _load().dfsdca_tau_subsets, units, tau, k, _address(out)):
        raise MemoryError("subset kernel: out of memory")


def choice_rows(rng: np.random.Generator, d: int, counts) -> tuple:
    """Column indices and values of sparse rows of dimension ``d``, row r
    holding ``counts[r]`` entries, as flat arrays ``(cols, vals)`` of int64
    and float64, the rows laid end to end.

    Each row takes what ``rng.choice(d, k, replace=False)`` and
    ``rng.standard_normal(k)`` take, in that order. Its columns are that
    choice's set, sorted (``np.sort`` of the choice), and its values are
    that normal draw with 0.0 mapped to 1.0.
    Raises ValueError, before any draw, if a count lies outside [0, d].
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    _check("counts", counts, _I64, kernel="generator")
    nnz = int(counts.sum())
    cols, vals = np.empty(nnz, np.int64), np.empty(nnz)
    bad = ctypes.c_int64(0)
    code = _draw(rng, _load().dfsdca_choice_rows, d, counts.size, _address(counts),
                 _address(cols), _address(vals), ctypes.byref(bad))
    if code == OUT_OF_RANGE:
        raise ValueError(f"generator kernel: row {bad.value} has "
                         f"{counts[bad.value]} entries, outside [0, d={d}]")
    if code:
        raise MemoryError("generator kernel: out of memory")
    return cols, vals


@functools.cache
def pow5_table() -> np.ndarray:
    """The parser's powers of five, as a read-only (651, 2) uint64 array,
    built once: row q + 342 holds the high and low 64 bits of
    floor(5**q * 2**e) for q in [-342, 308], e the power of two that puts
    the product in [2**127, 2**128), rounded up instead of down for q in
    [-27, -1]. That is fast_float's table, which Mushtak & Lemire prove
    sufficient for Eisel-Lemire (arXiv:2212.06644).
    """
    rows = []
    for q in range(-342, 309):
        if q >= 0:
            t = 5**q << 128 >> (5**q).bit_length()
        else:
            t = (1 << (127 + (5**-q).bit_length())) // 5**-q + (q >= -27)
        rows.append((t >> 64, t & (2**64 - 1)))
    table = np.array(rows, dtype=np.uint64)
    table.flags.writeable = False
    return table


def parse_libsvm(text, *, pieces: int | None = None) -> tuple:
    """Parse LIBSVM bytes (any buffer: ``bytes``, a uint8 array, ...; one that
    is not C-contiguous is read as its contiguous copy) into
    ``(arrays, fault)``. ``arrays`` is ``(labels, indptr, indices, data,
    max_index)``: one label per line that has one, CSR arrays with 0-based
    int64 indices and explicit zeros dropped, and the largest 1-based index
    seen (0 if none). ``fault`` is None, or ``(code, line, token)`` for the
    first malformed token: its return code (``BAD_LABEL`` ... ``NON_ASCII``),
    its line number from 1, and its bytes (the one byte, for ``NON_ASCII``).
    ``dataset.libsvm_arrays`` words the fault as a ``ParseError``.

    The buffer is cut right after a ``\\n`` into pieces of whole lines,
    one per CPU this process may use but none below ``MIN_PIECE`` bytes,
    which are parsed at once, one thread each, and joined before this
    returns; no thread outlives the call. The arrays and the fault are the
    same bits whatever the number of pieces. ``pieces`` forces that
    number, for tests.
    """
    view = memoryview(text)
    buf = np.frombuffer(view if view.c_contiguous else view.tobytes(), np.uint8)
    if pieces is None:
        pieces = max(1, min(len(os.sched_getaffinity(0)), buf.size // MIN_PIECE))
    if pieces < 1:
        raise ValueError(f"parse kernel: pieces={pieces} is below 1")
    lib = _load()
    pow5 = pow5_table()
    bounds = np.empty((pieces, 4), np.int64)
    at = _address(buf)
    lib.dfsdca_libsvm_bounds(at, buf.size, pieces, _address(bounds))
    max_rows, max_nnz = (int(b) for b in bounds[:, 2:].sum(axis=0))
    labels, data = np.empty(max_rows), np.empty(max_nnz)
    indptr = np.empty(max_rows + pieces, np.int64)
    indices = np.empty(max_nnz, np.int64)
    info = np.zeros(6, np.int64)
    code = lib.dfsdca_parse_libsvm(
        at, pieces, *map(_address, (bounds, labels, indptr, indices, data, info, pow5)))
    rows, nnz, max_index, line, start, end = (int(v) for v in info)
    if code == NO_MEMORY:
        raise MemoryError("parse kernel: out of memory")
    if code == OUT_OF_RANGE:
        raise RuntimeError(f"parse kernel: more rows or entries than counted ({code})")
    if code:
        return None, (code, line, buf[start:end].tobytes())
    arrays = labels[:rows], indptr[:rows + 1], indices[:nnz], data[:nnz], max_index
    return arrays, None


def csr_pass(indptr, indices, data, labels, d: int) -> tuple:
    """Check a Dataset's CSR arrays and take its row norms, in one compiled
    pass over the rows: ``(rows, counts, norms, bad)``.

    ``indptr`` and ``indices`` are C-contiguous int64 arrays, ``data`` and
    ``labels`` float64 ones, with ``indptr[-1] == indices.size`` and n, d
    and nnz at most ``INT32_MAX``, as the caller checks. ``rows`` is the
    :class:`Csr` over new int32 index arrays, which the kernels read, and
    ``data``: use it only if no row is at fault. ``counts`` holds each
    row's number of entries, and ``norms`` the square root of its squares
    summed left to right from 0.0. ``bad[k]`` is the first row at fault, or
    -1, where k is 0 for rows that are not canonical (``indptr`` does not
    delimit them, or indices do not increase strictly; the pass stops at
    the first), 1 for an index outside [0, d), 2 for an explicit zero value
    and 3 for a label or a norm that is not finite.
    """
    n = indptr.size - 1
    _check("indptr", indptr, _I64, kernel="dataset")
    _check("indices", indices, _I64, kernel="dataset")
    _check("data", data, _F64, indices.size, kernel="dataset")
    _check("labels", labels, _F64, n, kernel="dataset")
    counts, norms, bad = np.empty(n, np.int64), np.empty(n), np.empty(4, np.int64)
    arrays = np.empty(n + 1, np.int32), np.empty(indices.size, np.int32), data
    ptrs = tuple(map(_address, arrays))
    _load().dfsdca_csr_pass(
        n, d, indices.size, _address(indptr), _address(indices), ptrs[2],
        _address(labels), *ptrs[:2], *map(_address, (counts, norms, bad)),
    )
    return Csr(arrays, d, ptrs), counts, norms, bad


def steps(rows: Csr, loss: Loss, w, alpha, p, theta: float, guard: float,
          n_lam: float, idx, offsets) -> None:
    """The step kernel on a Dataset's and a LossSpec's own bindings, ``rows``
    and the ``loss`` of its examples: one iteration per subset
    ``idx[offsets[s]:offsets[s + 1]]``, updating ``w`` and ``alpha`` in
    place. Each array is checked for dtype, shape and C-contiguity before C
    reads it. Raises ValueError, before anything changes, if ``loss`` has
    not n examples or the offsets do not partition ``idx``, else if an
    index lies outside [0, n) or theta / p_i exceeds ``guard`` for it, else
    if a subset holds an index twice (the first repeat)."""
    n = rows.rows
    if loss.n != n:
        raise ValueError(f"step kernel: {loss.n} losses for {n} rows")
    _check("p", p, _F64, n)
    _check("w", w, _F64, rows.cols, write=True)
    _check("alpha", alpha, _F64, n, write=True)
    _check("subset indices", idx, _I64)
    _check("subset offsets", offsets, _I64)
    if offsets.size < 1:
        raise ValueError("step kernel: offsets must hold at least one entry")
    bad = ctypes.c_int64(0)
    code = rows._lib.dfsdca_steps(
        rows._ptr, loss._ptr, _address(p), theta, guard, n_lam,
        offsets.size - 1, _address(offsets), _address(idx), idx.size,
        _address(w), _address(alpha), ctypes.byref(bad),
    )
    if code:
        i = bad.value
        if code == OUT_OF_RANGE:
            raise ValueError(f"subset index {i} is outside [0, {n})")
        if code == REPEATED:
            raise ValueError(f"subset holds index {i} more than once")
        if code == GUARD:
            raise ValueError(
                f"theta={theta} exceeds p_{i}={p[i]}: alpha update would "
                "leave the convex combination"
            )
        if code == BAD_OFFSETS:
            raise ValueError(
                f"subset offsets do not partition the {idx.size} indices "
                f"(entry {i})"
            )
        raise MemoryError("step kernel: out of memory")


class Newton(NamedTuple):
    """What one :meth:`Hessian.newton` call reports: its ``status`` (OK for
    converged, or ``STALLED`` ... ``CG_CAP``), the Newton ``iteration`` it
    ended in, CG's ``where`` and ``quantity`` (the coordinate and diagonal
    entry for ``CONCAVE_COORDINATE``, the CG iteration and p^T H p for
    ``CONCAVE_DIRECTION``, the cap and the residual's norm for ``CG_CAP``),
    the ``points`` at which P was evaluated (the start and every trial
    point), the CG ``solves`` begun and the last CG tolerance ``rtol``."""
    status: int
    iteration: int
    where: int
    points: int
    solves: int
    quantity: float
    rtol: float


class Hessian:
    """The reference oracle on one Dataset's own bindings of its rows and
    their transpose (the :class:`Csr` that ``dataset.csr()`` and
    ``dataset.csr_t()`` return), as a context manager: use it only inside
    its ``with`` block. :meth:`newton` runs the whole Newton loop in one
    call; its Hessian products ``A^T (c o A p) / n + lam p`` and Jacobi
    diagonals ``sum_i c_i A_ij^2 / n + lam`` are one compiled pass each,
    and :meth:`at` and :meth:`product` run them one at a time: :meth:`at`
    takes the curvatures c, :meth:`product` then multiplies by them.

    The bits are those of numpy's ``ds.combine(c * ds.margins(p)) / ds.n +
    lam * p`` and ``np.bincount(ds.indices, ds.data * ds.data *
    np.repeat(c, ds.nnz), minlength=ds.d) / ds.n + lam``, whatever the
    thread count. With ``threads`` = 2 (by default: when this process may
    use more than one CPU and the dataset has at least ``MIN_HESSIAN_NNZ``
    entries) a helper thread, started on entry and joined on exit, may take
    the second half of each pass: the rows from ``cuts[0]`` on, the columns
    from ``cuts[1]`` on, cut where half of the entries lie (tests may set
    ``cuts``). The caller runs any half the helper has not claimed by the
    time it gets there, and on exit ``helped`` holds the number of halves
    the helper ran. With ``threads`` = 1 every pass runs on the caller's
    thread and no thread is started.
    """

    def __init__(self, dataset, lam: float, *, threads: int | None = None):
        rows, cols = dataset.csr(), dataset.csr_t()
        n, d, nnz = rows.rows, cols.rows, rows.arrays[1].size
        if threads is None:
            threads = 2 if len(os.sched_getaffinity(0)) > 1 and nnz >= MIN_HESSIAN_NNZ else 1
        if threads not in (1, 2):
            raise ValueError(f"hessian kernel: threads={threads} is not 1 or 2")
        self.n, self.d, self.lam, self.threads = n, d, float(lam), threads
        # one thread runs all of each pass
        self.cuts = (n, d)
        if threads == 2:
            self.cuts = (int(np.searchsorted(rows.arrays[0], nnz / 2)),
                         int(np.searchsorted(cols.arrays[0], nnz / 2)))
        # the vectors the kernel reads and writes, p, out and c, in one
        # buffer; held, with the bindings, so that the pointers stay valid
        vectors = np.empty(2 * d + n)
        self._p, self._out, self._c = vectors[:d], vectors[d:2 * d], vectors[2 * d:]
        self._held = (rows, cols, vectors)
        self._open = (rows._ptr, cols._ptr, self.lam, _address(vectors), threads)
        self._handle = None

    def __enter__(self):
        self._lib = _load()
        self._handle = self._lib.dfsdca_hessian_open(*self._open)
        if not self._handle:
            raise MemoryError("hessian kernel: out of memory")
        return self

    def __exit__(self, *exc) -> None:
        self.helped = self._lib.dfsdca_hessian_close(self._handle)
        self._handle = None

    def _cuts(self) -> tuple:
        if self._handle is None:
            raise RuntimeError("hessian kernel: used outside its with block")
        row_cut, col_cut = self.cuts
        if not (0 <= row_cut <= self.n and 0 <= col_cut <= self.d):
            raise ValueError(f"hessian kernel: cuts {self.cuts} outside "
                             f"[0, {self.n}] x [0, {self.d}]")
        return row_cut, col_cut

    def _apply(self, kind: int) -> np.ndarray:
        cuts = self._cuts()
        self._lib.dfsdca_hessian_apply(self._handle, kind, *cuts)
        return self._out.copy()

    def at(self, c) -> np.ndarray:
        """Take the curvatures ``c``, n floats, for the products that follow,
        and return the diagonal ``sum_i c_i A_ij^2 / n + lam`` as a new array."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.n,):
            raise ValueError(f"hessian kernel: c must have shape ({self.n},), "
                             f"got {c.shape}")
        self._c[:] = c
        return self._apply(DIAGONAL)

    def product(self, p) -> np.ndarray:
        """``A^T (c o A p) / n + lam p`` as a new array, for ``p`` of d floats."""
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.d,):
            raise ValueError(f"hessian kernel: p must have shape ({self.d},), "
                             f"got {p.shape}")
        self._p[:] = p
        return self._apply(PRODUCT)

    def newton(self, loss: Loss, w, *, target: float, forcing: float, armijo: float,
               slack_ulps: int, max_newton: int, stall: int, max_halvings: int,
               cg_per_dim: int, cg_extra: int) -> Newton:
        """Damped inexact Newton on P(w) = sum_i phi_i(A_i . w) / n +
        (lam / 2) |w|^2 for the ``loss`` of the rows' examples, from ``w``
        (d floats, overwritten with the converged or best iterate), in one
        compiled call; ``dfsdca_newton`` in ``_kernel.c`` says what the
        options do. Every dot product, norm and sum in it is pairwise, as
        ``np.sum`` adds, so its iterates have the bits of the same loop in
        numpy. Raises ValueError for a loss of another length, MemoryError
        if C runs out of memory."""
        if loss.n != self.n:
            raise ValueError(f"hessian kernel: {loss.n} losses for {self.n} rows")
        _check("w", w, _F64, self.d, write=True, kernel="hessian")
        cuts = self._cuts()
        reals = np.array([target, forcing, armijo, slack_ulps], dtype=np.float64)
        ints = np.array([max_newton, stall, max_halvings, cg_per_dim, cg_extra, *cuts],
                        dtype=np.int64)
        info, quantities = np.empty(4, np.int64), np.empty(2)
        status = self._lib.dfsdca_newton(self._handle, loss._ptr, *map(
            _address, (w, reals, ints, info, quantities)))
        if status == NO_MEMORY:
            raise MemoryError("hessian kernel: out of memory")
        return Newton(status, *info.tolist(), *quantities.tolist())
