"""Calibration kernels: a fixed amount of work, timed right before every op.

The CPU and memory speed of a shared machine drift by 10-30 % within
seconds, and a whole run can fall in a slow or a fast stretch.  The gated
end-to-end op times are therefore rescaled to a reference speed: each
op's wall time is multiplied by (the kernel's reference time) / (the
kernel's wall time just before the op).  The kernels use the interpreter
and numpy only, never qredshift, so a change to the program moves the
rescaled time by the same share as the wall time.  Set-up times are
rescaled the same way, by the python kernel run in each set-up process.

Each workload names the kernel that is bound by the same resource as its
ops at the commit that added the benchmark:

- "python": builds and filters a list of floats in the interpreter, for
  ops whose time goes to Python-level loops, calls and small objects
  (branch-large, cli-session);
- "philox": draws 1e6 Philox uniforms into an 8 MB buffer and compares
  them with 1/2, for ops whose time goes to drawing and comparing shot
  uniforms (shots-heavy);
- "memory": swaps the halves of a 32 MB complex array (the size of the
  dense state) through a 16 MB temporary, as an X gate does, for ops whose
  time goes to numpy kernels sweeping a state far larger than L2 (dense).

On the machine the baseline was taken on, rescaling cut the spread of
10-20 s window medians of op time by 2-10x against raw wall time; a kernel
bound by another resource than the op cut it by much less, or widened it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

PYTHON_LIST_LENGTH = 130_000
PHILOX_UNIFORMS = 1_000_000
MEMORY_AMPLITUDES = 1 << 21  # complex128: 32 MB
MEMORY_SWAP_BITS = (10, 11)  # two swaps, each across one bit of the index


def python_kernel() -> Callable[[], object]:
    def run() -> float:
        values = [i * 0.5 for i in range(PYTHON_LIST_LENGTH)]
        return sum(v for v in values if v > 10.0)

    return run


# numpy is imported inside the numpy kernels, not at module level, so a
# set-up probe can time the python kernel before its `import numpy`.


def philox_kernel() -> Callable[[], object]:
    import numpy as np

    uniforms = np.empty(PHILOX_UNIFORMS)
    generator = np.random.Generator(np.random.Philox(key=0))

    def run() -> int:
        generator.random(out=uniforms)
        return int(np.count_nonzero(uniforms < 0.5))

    return run


def memory_kernel() -> Callable[[], object]:
    import numpy as np

    amplitudes = np.ones(MEMORY_AMPLITUDES, dtype=np.complex128)

    def run() -> None:
        for bit in MEMORY_SWAP_BITS:
            view = amplitudes.reshape(-1, 2, 1 << bit)
            half = view[:, 0, :].copy()
            view[:, 0, :] = view[:, 1, :]
            view[:, 1, :] = half

    return run


# kind: (kernel factory, reference seconds).  A reference is the kernel's
# median time next to its workload's ops on the baseline machine, so there
# rescaled op times read close to wall times.
KERNELS = {
    "python": (python_kernel, 0.014),
    "philox": (philox_kernel, 0.011),
    "memory": (memory_kernel, 0.025),
}


def timer(kind: str) -> Callable[[], float]:
    """A function that runs the `kind` kernel once and returns its reference time / its wall time."""
    factory, reference_s = KERNELS[kind]
    kernel = factory()

    def scale() -> float:
        start = perf_counter()
        kernel()
        return reference_s / (perf_counter() - start)

    return scale
