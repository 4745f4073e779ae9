"""Build, load and call the compiled kernels in ``_kernel.c``: the dfSDCA
step kernel and the pass that turns bounded draws into tau-subsets.

The shared library is built on first use with gcc and cached as
``_kernel-<key>.so``, where the key is the sha256 of the C source and the
compiler flags. So an edited source gets a new cache entry, and a stale
library is never loaded. The cache is this package's ``__pycache__``
directory or, where that cannot be written (an install into a read-only
site-packages), ``~/.cache/dfsdca``. The library is written
to a temporary file first and moved into place, so a concurrent or
interrupted build never leaves a partial file under the final name.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .losses import KINDS, QUADFAM

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
#: no fused multiply-adds: they would change the iterates' rounding
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# return codes of dfsdca_steps and dfsdca_tau_subsets
OUT_OF_RANGE, REPEATED, GUARD, BAD_OFFSETS, NO_MEMORY = 1, 2, 3, 4, 5

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
    key = hashlib.sha256(text + "\0".join(FLAGS).encode()).hexdigest()[:20]
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
            [gcc, *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
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
        lib.dfsdca_tau_subsets.argtypes = [i64, i64, i64, vp, ctypes.POINTER(i64)]
        lib.dfsdca_steps.restype = lib.dfsdca_tau_subsets.restype = ctypes.c_int
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


def tau_subsets(units: int, draws) -> None:
    """Resolve Floyd's bounded draws, in place, into tau-subsets of
    ``range(units)``.

    ``draws`` is a (k, tau) int64 array whose entry (r, c) lies in
    [0, units - tau + c], as ``rng.integers(0, bounds)`` with bounds
    ``units - tau + 1 .. units`` gives it. Row r becomes the subset those
    draws select, in slot order. Raises ValueError, before anything is
    written, if an entry lies outside its range or ``draws`` is not a
    writeable C-contiguous 2-d int64 array.
    """
    _check("draws", draws, _I64, write=True, ndim=2, kernel="subset")
    k, tau = draws.shape
    if not 1 <= tau <= units:
        raise ValueError(f"subset kernel: tau={tau} is not in [1, units={units}]")
    bad = ctypes.c_int64(0)
    code = _load().dfsdca_tau_subsets(units, tau, k, draws.ctypes.data,
                                      ctypes.byref(bad))
    if code == OUT_OF_RANGE:
        r, c = divmod(bad.value, tau)
        raise ValueError(
            f"subset kernel: draw ({r}, {c}) = {draws[r, c]} is outside "
            f"[0, {units - tau + c}]"
        )
    if code:
        raise MemoryError("subset kernel: out of memory")


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
