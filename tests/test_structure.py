"""Source-level rules of the package layout."""

import glob
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qms")


def test_only_modular_reads_the_density_eigenvectors():
    """The modular eigenbasis of h is chosen in one module: every other layer
    maps through ``WeightedAlgebra.to_eig``/``from_eig`` instead of reading
    the density's eigenvectors."""
    readers = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        if os.path.basename(path) != "modular.py" and re.search(
                r"\.eig\.eigenvectors", source):
            readers.append(os.path.basename(path))
    assert readers == []
