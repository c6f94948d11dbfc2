"""The catalog's quotients against the closed forms of ``oracle``.

For every entry and every n up to its default N, the exponent E of
``CFSpec.pair`` must equal the closed form's, and the closed-form value,
evaluated at four times the entry's precision, must lie inside the
enclosure of ``CFSpec.quotient`` at that precision.
"""

import pytest

import oracle
from cfindep.catalog import build_config, catalog
from cfindep.cfcore import scalar_enclosure
from enclosing import contains


@pytest.mark.parametrize("name", sorted(catalog()))
def test_catalog_quotients_match_closed_forms(name):
    defaults = catalog()[name].defaults
    N, prec = defaults["N"], defaults["precision"]
    sequences, forms = build_config(name).sequences, oracle.quotients(name)
    assert len(sequences) == len(forms)
    for j, (seq, form) in enumerate(zip(sequences, forms), start=1):
        for n in range(1, N + 1):
            E, r, alpha = form(n)
            assert seq.pair(n)[0] == E, (j, n)
            enclosure = scalar_enclosure(seq.quotient(n), prec)
            assert contains(enclosure, oracle.value(E, r, alpha, 4 * prec)), (j, n)
