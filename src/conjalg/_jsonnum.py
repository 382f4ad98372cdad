"""Numbers read from JSON, for the readers of `diskmaps` and `skewpoly`.

A module of its own rather than a function in `__init__.py`: with bytecode
caching off, every `import conjalg` compiles `__init__.py`, and this function
there added about 0.1 ms, 10-20 %, to a bare import (Python 3.11, 2-vCPU
machine).
"""


def _json_complex(re, im=0) -> complex:
    """complex(re, im) from JSON numbers; a boolean is not a number."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise ValueError("coefficients must be numbers, not booleans")
    try:
        return complex(re, im)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("coefficients must lie in the float range") from None
