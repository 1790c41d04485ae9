"""The fast examples run end to end.

``test_analysis.py`` only checks that every example *compiles* clean;
this runs ``main()`` of the ones that take about a second.  The slower
ones (quickstart, eigen_hybrid, poisson_accuracy, sort_portability)
tune or sweep and stay out of the quick suite.
"""

import importlib.util
import os

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")

#: example -> lines its output must contain
FAST = {
    "heat_diffusion": ["(mass conserved: 1.000000)"],
    "matmul_chain": ["tile knobs live -> True", "bit-identical: True", "matches A @ B: True"],
}


@pytest.mark.parametrize("name", sorted(FAST))
def test_example_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", os.path.join(EXAMPLES, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    for line in FAST[name]:
        assert line in out
