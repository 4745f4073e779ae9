"""Build, load and call the compiled kernels in ``_kernel.c``: the dfSDCA
step kernel, the tau-subset draws, the synthetic generator's row draws and
the LIBSVM parser.

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

import numpy as np

from .dataset import ParseError
from .losses import KINDS, QUADFAM

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
#: no fused multiply-adds: they would change the iterates' rounding
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: numpy's distributions (random_bounded_uint64, ...), as a static library
NPYRANDOM = Path(np.get_include()).parents[1] / "random" / "lib" / "libnpyrandom.a"

# return codes of the dfsdca_* functions
OUT_OF_RANGE, REPEATED, GUARD, BAD_OFFSETS, NO_MEMORY = 1, 2, 3, 4, 5
BAD_LABEL, NO_COLON, BAD_TOKEN, NOT_ONE_BASED = 6, 7, 8, 9
INDEX_TOO_LARGE, NOT_INCREASING, NON_ASCII = 10, 11, 12

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)

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
        vp, i64, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        lib.dfsdca_steps.argtypes = [
            vp, vp, vp, i64, ctypes.c_int, vp, vp, vp, vp,
            dbl, dbl, dbl, i64, vp, vp, i64, vp, vp, ctypes.POINTER(i64),
        ]
        lib.dfsdca_tau_subsets.argtypes = [vp, i64, i64, i64, vp]
        lib.dfsdca_choice_rows.argtypes = [vp, i64, i64, vp, vp, vp,
                                           ctypes.POINTER(i64)]
        lib.dfsdca_libsvm_bounds.argtypes = [vp, i64, vp]
        lib.dfsdca_libsvm_bounds.restype = None
        lib.dfsdca_parse_libsvm.argtypes = [vp, i64, i64, i64, vp, vp, vp, vp, vp, vp]
        for fn in (lib.dfsdca_steps, lib.dfsdca_tau_subsets, lib.dfsdca_choice_rows,
                   lib.dfsdca_parse_libsvm):
            fn.restype = ctypes.c_int
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
    if _draw(rng, _load().dfsdca_tau_subsets, units, tau, k, out.ctypes.data):
        raise MemoryError("subset kernel: out of memory")


def choice_rows(rng: np.random.Generator, d: int, counts) -> tuple:
    """Column indices and values of sparse rows of dimension ``d``, row r
    holding ``counts[r]`` entries, as flat arrays ``(cols, vals)`` of int64
    and float64, the rows laid end to end.

    Each row takes what ``rng.choice(d, k, replace=False)`` and
    ``rng.standard_normal(k)`` take, in that order. Its columns are that
    choice's set, unsorted (``np.sort`` of them equals ``np.sort`` of the
    choice), and its values are that normal draw with 0.0 mapped to 1.0.
    Raises ValueError, before any draw, if a count lies outside [0, d].
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    _check("counts", counts, _I64, kernel="generator")
    nnz = int(counts.sum())
    cols, vals = np.empty(nnz, np.int64), np.empty(nnz)
    bad = ctypes.c_int64(0)
    code = _draw(rng, _load().dfsdca_choice_rows, d, counts.size, counts.ctypes.data,
                 cols.ctypes.data, vals.ctypes.data, ctypes.byref(bad))
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


def parse_libsvm(text) -> tuple:
    """Parse LIBSVM bytes (any buffer: ``bytes``, a uint8 array, ...) into
    ``(labels, indptr, indices, data, max_index)``: one label per line that
    has one, CSR arrays with 0-based int64 indices and explicit zeros
    dropped, and the largest 1-based index seen (0 if none).

    Raises :class:`ParseError` naming the line of the first malformed
    token, in the words of the grammar in :func:`dataset.parse_libsvm`.
    """
    buf = np.frombuffer(text, np.uint8)
    lib = _load()
    pow5 = pow5_table()
    bounds = np.empty(2, np.int64)
    lib.dfsdca_libsvm_bounds(buf.ctypes.data, buf.size, bounds.ctypes.data)
    max_rows, max_nnz = (int(b) for b in bounds)
    labels, data = np.empty(max_rows), np.empty(max_nnz)
    indptr, indices = np.empty(max_rows + 1, np.int64), np.empty(max_nnz, np.int64)
    info = np.zeros(6, np.int64)
    code = lib.dfsdca_parse_libsvm(
        buf.ctypes.data, buf.size, max_rows, max_nnz, labels.ctypes.data,
        indptr.ctypes.data, indices.ctypes.data, data.ctypes.data, info.ctypes.data,
        pow5.ctypes.data,
    )
    rows, nnz, max_index, line, start, end = (int(v) for v in info)
    if code == NON_ASCII:
        raise ParseError(f"line {line}: non-ASCII byte 0x{buf[start]:02x}")
    token = buf[start:end].tobytes().decode("ascii")
    if code == BAD_LABEL:
        raise ParseError(f"line {line}: non-numeric label {token!r}")
    if code == NO_COLON:
        raise ParseError(f"line {line}: expected idx:val, got {token!r}")
    if code == BAD_TOKEN:
        raise ParseError(f"line {line}: non-numeric token {token!r}")
    if code == NOT_ONE_BASED:
        raise ParseError(f"line {line}: index {int(token.partition(':')[0])} "
                         "is not 1-based")
    if code == INDEX_TOO_LARGE:
        raise ParseError(f"line {line}: index {int(token.partition(':')[0])} "
                         "exceeds 2**63 - 1")
    if code == NOT_INCREASING:
        raise ParseError(f"line {line}: non-increasing indices")
    if code == NO_MEMORY:
        raise MemoryError("parse kernel: out of memory")
    if code:
        raise RuntimeError(f"parse kernel: more rows or entries than counted ({code})")
    return labels[:rows], indptr[:rows + 1], indices[:nnz], data[:nnz], max_index


class Kernel:
    """The compiled step kernel bound to one problem's CSR arrays and loss
    parameters, which it keeps alive and points at for every call.

    The CSR index arrays must be int32, as scipy stores them while n, d
    and nnz stay below 2**31; problem construction rejects larger datasets.
    Every array is checked for dtype, shape and C-contiguity before its
    pointer reaches C.
    """

    def __init__(self, dataset, loss):
        indptr, indices, data = dataset.indptr, dataset.indices, dataset.data
        _check("indptr", indptr, _I32)
        _check("indices", indices, _I32)
        n = indptr.size - 1
        _check("data", data, _F64, indices.size)
        if (indptr[0] != 0 or indptr[-1] != indices.size
                or np.any(indptr[1:] < indptr[:-1])):
            raise ValueError("step kernel: indptr does not delimit the rows")
        if indices.size and (indices.min() < 0 or indices.max() >= dataset.d):
            raise ValueError(f"step kernel: CSR index outside [0, d={dataset.d})")
        params = {"y": loss.y} if loss.kind != QUADFAM else {"c": loss.c, "b": loss.b}
        for name, arr in params.items():
            _check(name, arr, _F64, n)
        self.n, self.d = n, int(dataset.d)
        # held so that the pointers below stay valid
        self._arrays = (indptr, indices, data, *params.values())
        ptr = {name: arr.ctypes.data for name, arr in params.items()}
        self._fixed = (
            indptr.ctypes.data, indices.ctypes.data,
            data.ctypes.data, n, KINDS.index(loss.kind),  # the C enum's order
            ptr.get("y"), ptr.get("c"), ptr.get("b"),
        )
        self._fn = _load().dfsdca_steps

    def steps(self, w, alpha, p, theta: float, guard: float, n_lam: float,
              idx, offsets) -> None:
        """Run one iteration per subset ``idx[offsets[s]:offsets[s + 1]]``,
        updating ``w`` and ``alpha`` in place. Raises ValueError, before
        anything changes, if the offsets do not partition ``idx``, else if
        an index lies outside [0, n) or theta / p_i exceeds ``guard`` for
        it, else if a subset holds an index twice (the first repeat)."""
        _check("p", p, _F64, self.n)
        _check("w", w, _F64, self.d, write=True)
        _check("alpha", alpha, _F64, self.n, write=True)
        _check("subset indices", idx, _I64)
        _check("subset offsets", offsets, _I64)
        if offsets.size < 1:
            raise ValueError("step kernel: offsets must hold at least one entry")
        bad = ctypes.c_int64(0)
        code = self._fn(
            *self._fixed,
            p.ctypes.data, theta, guard, n_lam,
            offsets.size - 1, offsets.ctypes.data, idx.ctypes.data, idx.size,
            w.ctypes.data, alpha.ctypes.data,
            ctypes.byref(bad),
        )
        if code:
            i = bad.value
            if code == OUT_OF_RANGE:
                raise ValueError(f"subset index {i} is outside [0, {self.n})")
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
