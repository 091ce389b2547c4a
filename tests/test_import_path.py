"""What a CLI request loads before it runs: ``import casimir_harmonic.cli`` in
a fresh interpreter.

Every layer module is imported eagerly (a tracer that wraps the layers sees
only modules already in ``sys.modules``), while the self-test suite and
``numpy.polynomial`` stay out of the request path of ``stress``, ``asympt``
and ``energy``.  Each layer imports only layers below it.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PKG = os.path.join(SRC, "casimir_harmonic")

LAYERS = ("specfun", "jets", "quadrature", "kernels", "continuation",
          "stress", "asymptotics", "energy", "cli")

EXPORTS = (
    "COMPONENTS", "EULER_GAMMA", "EnergyResult", "HarmonicConfig", "In_quadrature",
    "In_zeta", "QuadratureError", "SeriesExpansion", "StressValue", "VChartFamily",
    "XI_SLOPE", "asymptotic_match_report", "boundary_energy_scan", "build_P_polynomials",
    "bulk_energy_quadrature", "bulk_energy_zeta", "conformal_split", "digamma",
    "g_log_gamma", "gamma", "heat_trace", "hurwitz_zeta", "integrate_semiaxis",
    "large_r_expansion", "lower_gamma", "mehler_kernel_1d",
    "minimal_derivative_count", "renorm_scale_constant", "riemann_zeta",
    "small_r_expansion", "spectral_trace_oracle", "stress_component",
    "stress_profiles", "upper_gamma", "weight_exponent", "xi_conformal", "__version__",
)

CHILD = """
import json, sys
import casimir_harmonic.cli
import casimir_harmonic as pkg
print(json.dumps({"modules": sorted(sys.modules),
                  "exports": sorted(n for n in vars(pkg) if not n.startswith("_")
                                    or n == "__version__")}))
"""


@pytest.fixture(scope="module")
def fresh_import():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_cli_import_loads_every_layer_and_no_selftest(fresh_import):
    modules = set(fresh_import["modules"])
    assert {"casimir_harmonic." + layer for layer in LAYERS} <= modules
    assert "casimir_harmonic.selftest" not in modules
    assert not [m for m in modules if m == "numpy.polynomial" or m.startswith("numpy.polynomial.")]


def test_package_exports_are_unchanged(fresh_import):
    assert set(EXPORTS) <= set(fresh_import["exports"])


# the version string from the package itself, and the self-test suite, which
# a selftest request imports on demand
LAYER_EXCEPTIONS = {("cli", "casimir_harmonic"), ("cli", "selftest")}


def _package_imports(layer):
    """Package modules a layer imports, anywhere in its source."""
    with open(os.path.join(PKG, layer + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.module or "casimir_harmonic"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("casimir_harmonic"):
            yield node.module.rpartition(".")[2]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("casimir_harmonic"):
                    yield alias.name.rpartition(".")[2]


@pytest.mark.parametrize("layer", LAYERS)
def test_layers_import_only_layers_below(layer):
    below = LAYERS[:LAYERS.index(layer)]
    upward = [name for name in _package_imports(layer)
              if name not in below and (layer, name) not in LAYER_EXCEPTIONS]
    assert not upward
