"""numpy, imported only where arrays are built.

The scalar commands evaluate floats alone, and `import numpy` is about half
of their cold-start time. A module that builds arrays binds `np` to
`LazyNumpy(globals())`: the first attribute read imports numpy and rebinds
that module's `np` to numpy itself, so later reads cost what they would
after a plain `import numpy as np`.
"""

import sys


class LazyNumpy:
    """Stand-in for numpy in one module's namespace until its first use."""

    def __init__(self, namespace):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


def is_array(x) -> bool:
    """isinstance(x, numpy.ndarray), without importing numpy: until some code
    has imported it, nothing can be an ndarray."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(x, numpy.ndarray)
