"""Set-up and memory probe, run in a fresh process:

    python3 perfbench/probe.py WORKLOAD DIR

``DIR`` holds ``payload.json`` (written by ``write``) and the ``.npy``
files it names.  The probe loads the payload with the standard library,
then times ``import wirtcalc`` (``wirtcalc.cli`` for the cli workload) plus
building the program-side inputs; the arrays are read from disk between
the two, outside the clock.  The set-up time is scaled to the reference
machine speed by the calibration kernel, timed just before and after it
(``calib.py``).  It then runs the payload's requests, so that
the process's peak RSS covers the program's work and holds nothing of the
benchmark's generation or references.  It prints
{"raw_setup_s": seconds, "setup_s": scaled seconds, "peak_rss_mb": MB}.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402

#: calibration kernel runs before and after the timed set-up
KERNEL_RUNS = 5


class Npy(str):
    """A placeholder for an array stored next to the payload."""


def write(directory: Path, payload: dict, requests: list) -> None:
    """Store ``payload`` and the program-side ``requests`` in ``directory``:
    complex numbers tagged, arrays as ``.npy`` files, tuples as lists."""
    arrays = []

    def enc(v):
        if isinstance(v, complex):
            return {"z": [v.real, v.imag]}
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        if hasattr(v, "__array__"):
            import numpy as np
            name = f"a{len(arrays)}.npy"
            np.save(directory / name, v)
            arrays.append(name)
            return {"npy": name}
        return v
    text = json.dumps({"payload": enc(payload), "requests": enc(requests)})
    (directory / "payload.json").write_text(text)


def _tagged(obj: dict):
    if set(obj) == {"z"}:
        return complex(*obj["z"])
    if set(obj) == {"npy"}:
        return Npy(obj["npy"])
    return obj


def _load_arrays(v, directory: Path):
    if isinstance(v, Npy):
        import numpy as np
        return np.load(directory / v)
    if isinstance(v, list):
        return [_load_arrays(x, directory) for x in v]
    if isinstance(v, dict):
        return {k: _load_arrays(x, directory) for k, x in v.items()}
    return v


def main() -> None:
    import wl_hilbert
    import wl_scalar
    classes = {"scalar": wl_scalar.Scalar, "hilbert": wl_hilbert.Hilbert}
    name, directory = sys.argv[1], Path(sys.argv[2])
    data = json.loads((directory / "payload.json").read_text(),
                      object_hook=_tagged)
    speed = [calib.py_kernel() for _ in range(KERNEL_RUNS)]
    t = time.perf_counter()
    if name == "cli":
        import wirtcalc.cli  # noqa: F401
        setup = time.perf_counter() - t
    else:
        import wirtcalc
        setup = time.perf_counter() - t
        cls = classes[name]
        data = _load_arrays(data, directory)
        t = time.perf_counter()
        state = cls.build(wirtcalc, data["payload"])
        setup += time.perf_counter() - t
    speed += [calib.py_kernel() for _ in range(KERNEL_RUNS)]
    if name != "cli":
        for args in data["requests"]:
            cls.execute(wirtcalc, state, args)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = setup * calib.PY_NOMINAL_S / statistics.median(speed)
    print(json.dumps({"raw_setup_s": setup, "setup_s": scaled,
                      "peak_rss_mb": peak}))


if __name__ == "__main__":
    main()
