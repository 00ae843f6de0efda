"""Test-side counts that share no formula with the package.

Imported by the test modules that referee the package's h1; pytest puts
this directory on the import path, as the test modules are not a package.
"""


def h1_by_local_cohomology(e, a, b):
    """h1 of a*h + b*f as a lattice count: the monomials of the toric
    local-cohomology description of H^1 (Eisenbud-Mustata-Stillman, J.
    Symbolic Comput. 2000), one by one.  It shares no formula with
    `counts`, which forces h1 through chi."""
    found = 0
    for m2 in range(-a, 1):
        for m1 in range(e * m2 + 1, -b):
            found += 1
    for m2 in range(1, -a):
        for m1 in range(-b, e * m2 + 1):
            found += 1
    return found
