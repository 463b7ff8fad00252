"""The declared numpy floor admits every numpy function the package calls."""

import os
import re

from conftest import SRC_ROOT

REPO_ROOT = os.path.dirname(SRC_ROOT)

# numpy functions that first appeared after 1.24, with that release
NEWER_NUMPY = {
    "bitwise_count": (2, 0), "concat": (2, 0), "permute_dims": (2, 0),
    "pow": (2, 0), "acos": (2, 0), "asin": (2, 0), "atan": (2, 0),
    "atan2": (2, 0), "acosh": (2, 0), "asinh": (2, 0), "atanh": (2, 0),
    "bitwise_left_shift": (2, 0), "bitwise_right_shift": (2, 0),
    "bitwise_invert": (2, 0), "isdtype": (2, 0), "astype": (2, 0),
    "matrix_transpose": (2, 0), "vecdot": (2, 0), "vector_norm": (2, 0),
    "matrix_norm": (2, 0), "svdvals": (2, 0), "unstack": (2, 1),
    "cumulative_sum": (2, 1), "cumulative_prod": (2, 1),
}


def _numpy_floor():
    with open(os.path.join(REPO_ROOT, "pyproject.toml")) as fh:
        match = re.search(r'"numpy>=(\d+)\.(\d+)', fh.read())
    assert match, "pyproject.toml declares no numpy floor"
    return int(match.group(1)), int(match.group(2))


def test_numpy_floor_admits_every_numpy_call():
    floor = _numpy_floor()
    call = re.compile(r"\bnp\.(?:linalg\.)?(\w+)\s*\(")
    too_new = []
    for folder, _, files in os.walk(os.path.join(SRC_ROOT, "spinweb")):
        for name in (f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    for fn in call.findall(line):
                        if NEWER_NUMPY.get(fn, (0, 0)) > floor:
                            too_new.append(f"{name}:{lineno} np.{fn} needs numpy "
                                           f">= {'.'.join(map(str, NEWER_NUMPY[fn]))}")
    assert not too_new, f"declared floor numpy>={floor[0]}.{floor[1]}: {too_new}"
