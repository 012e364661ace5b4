"""NOT-SMOOTH on the converging model holds up to the model's last stage.

On `converging_sequence_site(n)` the chains clamp at stage n, so the
costalk growth stops there: `is_smooth` of the constant point and of
constant Z reads NOT-SMOOTH for d <= n and SMOOTH for d >= n + 1.
"""

import pytest

from finsite.cosheaf import constant_precosheaf, is_smooth
from finsite.spaces import converging_sequence_site, site_points
from finsite.values import finset, free_ab


@pytest.mark.parametrize("value", [finset("*"), free_ab(1)], ids=["pt", "Z"])
def test_smoothness_turns_at_the_last_stage(value):
    spec = converging_sequence_site(4)
    a = constant_precosheaf(spec, value, 5, site_points(spec))
    assert is_smooth(a, 4).classification == "NOT-SMOOTH"
    assert is_smooth(a, 5).classification == "SMOOTH"
