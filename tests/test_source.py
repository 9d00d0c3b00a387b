"""Source rules that hold for every module of the package."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import supgof

PACKAGE = Path(supgof.__file__).parent


def test_no_assert_statements():
    """Checks must raise: ``assert`` vanishes under ``python -O``."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(node) -> list[str]:
    """Dotted module names an import statement loads; [] for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def _is_under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_no_scipy_stats_imports():
    """No module imports ``scipy.stats``, whose import alone costs more than
    the whole numpy-only start-up of ``rate`` and ``test``; the modules that
    need scipy (divergence, risk) use ``scipy.special`` only."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if any(_is_under(name, "scipy.stats") for name in _imported_names(node))
    ]
    assert found == []


# The modules ``supgof.cli`` imports at module level; ``rate`` and ``test`` run
# on these alone.
CLI_START_UP_MODULES = ("cli", "model", "maxtest", "rates", "special")


def test_cli_start_up_modules_import_no_scipy():
    """The CLI's start-up modules have no module-level scipy import, and
    ``cli`` imports no other supgof module at module level."""
    found = []
    for module in CLI_START_UP_MODULES:
        path = PACKAGE / f"{module}.py"
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _imported_names(node)
            if any(_is_under(name, "scipy") for name in names):
                found.append(f"{path.name}:{node.lineno}")
            if module == "cli" and isinstance(node, ast.ImportFrom) and node.level:
                if node.module not in CLI_START_UP_MODULES:
                    found.append(f"{path.name}:{node.lineno} imports .{node.module}")
    assert found == []


# The modules the sweep workloads import before they build a null: each scipy
# submodule costs tens of milliseconds of start-up, so these load
# ``scipy.special`` at most, and ``model`` and ``rates`` no scipy at all.
SPECIAL_ONLY_MODULES = ("risk", "priors", "divergence")
SCIPY_FREE_MODULES = ("model", "rates")


def _scipy_beyond_special(nodes) -> list[int]:
    """Lines among ``nodes`` that import scipy other than ``scipy.special``."""
    found = []
    for node in nodes:
        names = _imported_names(node)
        if isinstance(node, ast.ImportFrom):  # what it loads: "from scipy import special" is scipy.special
            names = names[1:]
        if any(_is_under(name, "scipy") and not _is_under(name, "scipy.special") for name in names):
            found.append(node.lineno)
    return found


def test_sweep_modules_import_scipy_special_at_most():
    """``risk``, ``priors`` and ``divergence`` import nothing from scipy but
    ``scipy.special`` at module level; ``model`` and ``rates`` import no scipy
    anywhere."""
    found = []
    for module in SPECIAL_ONLY_MODULES + SCIPY_FREE_MODULES:
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        if module in SPECIAL_ONLY_MODULES:
            lines = _scipy_beyond_special(tree.body)
        else:
            nodes = ast.walk(tree)
            lines = [node.lineno for node in nodes if any(_is_under(n, "scipy") for n in _imported_names(node))]
        found += [f"{path.name}:{line}" for line in lines]
    assert found == []


def test_scipy_rule_sees_every_spelling():
    spellings = [
        "import scipy",
        "import scipy.stats as st",
        "from scipy import stats",
        "from scipy.optimize import brentq",
        "from scipy.special import pdtr, gammaln",
        "import scipy.special",
        "from scipy import special",
        "import numpy",
    ]
    assert [_scipy_beyond_special(ast.parse(src).body) for src in spellings] == [[1], [1], [1], [1], [], [], [], []]


def _h_inverse_uses(tree: ast.AST) -> list[int]:
    """Lines that import ``h_inverse`` from any module, or reach it as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and any(alias.name == "h_inverse" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "h_inverse")
    ]


def test_maxtest_takes_thresholds_from_the_run_ends():
    """``maxtest`` has no ``h_inverse`` of its own: its half-widths come from
    ``rates._peak_on_run_ends``, so no per-coordinate threshold array comes back."""
    path = PACKAGE / "maxtest.py"
    assert _h_inverse_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_h_inverse_rule_sees_every_spelling():
    spellings = [
        "from .special import h_inverse",
        "from .special import h, h_inverse as inverse",
        "from supgof.special import h_inverse",
        "from .rates import gamma_rate, h_inverse",
        "from . import special\nspecial.h_inverse(1.0)",
        "import supgof.special as sp\nx = sp.h_inverse",
        "from .special import h",
        "from .rates import _peak_on_run_ends",
    ]
    assert [_h_inverse_uses(ast.parse(src)) for src in spellings] == [[1], [1], [1], [1], [2], [2], [], []]


_PROFILES = {"poisson_rate", "multinomial_rate", "_poisson_profile", "_multinomial_profile"}


def _profile_uses(tree: ast.AST) -> list[int]:
    """Lines that import a full rate profile from any module, or reach it as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and any(alias.name in _PROFILES for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr in _PROFILES)
    ]


def test_only_cli_and_rates_build_full_profiles():
    """A full profile computes ``h^{-1}`` at every run end, which only
    ``rate``'s ``terms`` need: every other caller takes the peak alone
    (``rates._poisson_peak``, ``rates._multinomial_peak``, ``rates._peak_on_run_ends``)."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("cli.py", "rates.py")
        for line in _profile_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_profile_rule_sees_every_spelling():
    spellings = [
        "from .rates import poisson_rate",
        "from .rates import multinomial_rate as profile",
        "from supgof.rates import _poisson_profile, _peak_on_run_ends",
        "from . import rates\nrates._multinomial_profile(values, counts, n)",
        "import supgof.rates as r\nregime = r.poisson_rate(mu).regime",
        "from .rates import _poisson_peak, _multinomial_peak",
        "poisson_rate = 1.0",
    ]
    assert [_profile_uses(ast.parse(src)) for src in spellings] == [[1], [1], [1], [2], [2], [], []]


_DENSE_VALUES = {"rates", "probs", "tail"}


def _dense_value_reads(tree: ast.AST) -> list[int]:
    """Lines outside a function named ``prob_all_observed`` that read a null's
    dense values: a ``rates``, ``probs`` or ``tail`` attribute, or one of
    those names given as a string to ``getattr`` or ``attrgetter``."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "prob_all_observed"
        for node in ast.walk(fn)
    }

    def reads(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in _DENSE_VALUES
        if isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            strings = [arg.value for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            return callee in ("getattr", "attrgetter") and bool(_DENSE_VALUES & set(strings))
        return False

    return sorted({node.lineno for node in ast.walk(tree) if id(node) not in exempt and reads(node)})


def test_rate_profiles_read_only_the_runs():
    """In ``rates`` every profile and level is taken on the null's runs: only
    ``prob_all_observed``, a product over the first ``k`` coordinates, reads
    the dense ``rates``, ``probs`` or ``tail``, so ``rate`` works at any p."""
    path = PACKAGE / "rates.py"
    assert _dense_value_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_dense_value_rule_sees_every_spelling():
    spellings = [
        "def poisson_rate(mu):\n    rates = mu.rates",
        "tail = q0.probs[1:]",
        "def multinomial_rate(q0, n):\n    return n * q0.tail",
        "x = self.base.rates[0]",
        "rates = getattr(mu, 'rates')",
        "from operator import attrgetter\nget = attrgetter('probs')",
        "def prob_all_observed(mu, k):\n    return mu.rates[:k]",
        "values, counts = mu.runs",
        "rates = 1.0",
        "head = q0.head",
    ]
    assert [_dense_value_reads(ast.parse(src)) for src in spellings] == [[2], [1], [2], [1], [1], [2], [], [], [], []]


_KERNEL_CALLS = {"abs", "absolute", "fabs", "rejects"}


def _kernel_calls(tree: ast.AST) -> list[int]:
    """Lines outside a function named ``_max_test`` that call an absolute
    value (``abs``, ``np.abs``, ``np.absolute`` or ``np.fabs``, under any
    module alias) or a ``rejects`` method, or that import one of those names."""
    kernel = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_max_test"
        for node in ast.walk(fn)
    }

    def callee(node):
        return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)

    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in kernel
        and (
            (isinstance(node, ast.Call) and callee(node) in _KERNEL_CALLS)
            or (isinstance(node, ast.ImportFrom) and any(alias.name in _KERNEL_CALLS for alias in node.names))
        )
    ]


def test_maxtest_decides_in_one_kernel():
    """In ``maxtest`` only ``_max_test`` takes ``|x - center|`` or asks a box
    which rows it rejects: each test is that kernel with its own blocks."""
    path = PACKAGE / "maxtest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_max_test" for node in tree.body)
    assert _kernel_calls(tree) == []


def test_kernel_rule_sees_every_spelling():
    spellings = [
        "def poisson_max_test(x, mu):\n    return np.abs(x - mu).max(axis=1)",
        "import numpy\nstat = numpy.absolute(table - center)",
        "def inside(x):\n    return abs(x - center) <= half_width",
        "from numpy import fabs as magnitude",
        "def head_test(table, box):\n    return box[:1].rejects(table[:, :1])",
        "reject = cfg.acceptance_box(mu).rejects(table)",
        "def _max_test(x, center, box, blocks):\n    dev = np.abs(x - center)\n    return box.rejects(x)",
        "def rejects(self, table):\n    return (table < self.lo).any(axis=1)",
        "inside = within(x - center, w) & within(center - x, w)",
    ]
    assert [_kernel_calls(ast.parse(src)) for src in spellings] == [[2], [2], [2], [1], [2], [1], [], [], []]


def _unique_uses(tree: ast.AST) -> list[int]:
    """Lines that import ``unique`` from any module, or reach it as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and any(alias.name == "unique" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "unique")
    ]


def test_risk_groups_cells_with_one_sort():
    """``risk`` has no ``np.unique``: ``_groups`` orders the fixed-n cells by
    one stable sort, whatever order they come in, and no second path sorts them."""
    path = PACKAGE / "risk.py"
    assert _unique_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_unique_rule_sees_every_spelling():
    spellings = [
        "np.unique(cells, axis=0)",
        "import numpy\nnumpy.unique(cells)",
        "import numpy as xp\nxp.unique(cells, return_inverse=True)",
        "from numpy import unique",
        "from numpy import sort, unique as distinct",
        "order = np.lexsort((hi, lo, lam))",
        "np.add.reduceat(counts, starts)",
        "unique = 1",
    ]
    assert [_unique_uses(ast.parse(src)) for src in spellings] == [[1], [2], [2], [1], [1], [], [], []]


# Each law's kernels, and the one class that may reach them.
_LAW_KERNELS = {
    "_leave_one_out_type2": "_PoissonCells",
    "_choose_grid": "_FixedN",
    "_log_spectra": "_FixedN",
    "_invert": "_FixedN",
    "_ratio": "_FixedN",
}


def _law_kernel_uses(tree: ast.AST) -> list[int]:
    """Lines outside the class that owns it that reach a law's kernel: a
    loaded name or an attribute of ``_leave_one_out_type2`` (owned by
    ``_PoissonCells``), ``_choose_grid``, ``_log_spectra``, ``_invert`` or
    ``_ratio`` (owned by ``_FixedN``), or an import of one."""
    owned = {
        name: {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == owner
            for node in ast.walk(cls)
        }
        for name, owner in _LAW_KERNELS.items()
    }

    def reached(node) -> list[str]:
        if isinstance(node, ast.ImportFrom):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return [node.id]
        return [node.attr] if isinstance(node, ast.Attribute) else []

    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            for name in reached(node)
            if name in _LAW_KERNELS and id(node) not in owned[name]
        }
    )


def test_risk_reaches_type2_through_its_laws():
    """In ``risk`` only ``_PoissonCells`` averages over a prior's spiked cell
    and only ``_FixedN`` chooses a fixed-n grid, forms a product's spectra,
    inverts and normalizes it, so every route's Type I and Type II come from
    one law per model."""
    path = PACKAGE / "risk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert {"_PoissonCells", "_FixedN"} <= classes
    assert _law_kernel_uses(tree) == []


def test_law_rule_sees_every_spelling():
    spellings = [
        "def estimate(log_a, b, pool):\n    return _leave_one_out_type2(log_a, b, pool, lam, ones, '', None, 0)",
        "import supgof.risk as r\ntype2 = r._leave_one_out_type2(log_a, b, pool)",
        "def _accept(box, n, lam):\n    return _ratio(_invert(grid, t, *_log_spectra(table, 0, grid)), n, s)",
        "from .risk import _invert as invert",
        "normalize = _ratio\naccept = normalize(numerator, n, total)",
        "class _FixedN:\n    def bayes(self, prior):\n        return _leave_one_out_type2(a, b, pool)",
        "class _PoissonCells:\n    def bayes(self, prior):\n        return _leave_one_out_type2(a, b, pool)",
        "class _FixedN:\n    def __init__(self):\n        self.accept = _ratio(_invert(self.grid, tau, *spectra), n, s)",
        "def _invert(grid, tau, real, phase):\n    return np.sum(real)",
        "grid = _choose_grid(law, t, theta, phi)",
    ]
    assert [_law_kernel_uses(ast.parse(src)) for src in spellings] == [[2], [2], [2], [1], [1], [3], [], [], [], [1]]


_PRIOR_CLASSES = {"PoissonSpikePrior", "MultinomialSimplexPrior"}
# The routes that take a prior and hand its pool and mass to a law.
_PRIOR_READERS = {"estimate_poisson_risk", "estimate_multinomial_risk"}


def _prior_uses(tree: ast.AST) -> list[int]:
    """Lines that construct a lower-bound prior (a call of
    ``PoissonSpikePrior`` or ``MultinomialSimplexPrior``, or of a method of
    one, under any module path), or that load either name outside
    ``estimate_poisson_risk`` and ``estimate_multinomial_risk``; the import
    itself loads no name."""
    readers = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in _PRIOR_READERS
        for node in ast.walk(fn)
    }

    def is_prior(node) -> bool:
        if isinstance(node, ast.Name):
            return isinstance(node.ctx, ast.Load) and node.id in _PRIOR_CLASSES
        return isinstance(node, ast.Attribute) and node.attr in _PRIOR_CLASSES

    def constructs(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        return is_prior(node.func) or (isinstance(node.func, ast.Attribute) and is_prior(node.func.value))

    return sorted(
        {node.lineno for node in ast.walk(tree) if (is_prior(node) and id(node) not in readers) or constructs(node)}
    )


def test_risk_constructs_no_prior():
    """``risk`` builds each law with a prior's pool and hands it the prior's
    added masses: no law or sweep constructs a prior, and only the two
    ``estimate_*`` routes, which take one, read its class."""
    path = PACKAGE / "risk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _PRIOR_READERS <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _prior_uses(tree) == []


def test_prior_rule_sees_every_spelling():
    spellings = [
        "def sweep(mu, xi):\n    return PoissonSpikePrior(mu, 1, 1.0, xi, 2.7)",
        "import supgof.priors as pr\nprior = pr.MultinomialSimplexPrior(q0, n, 2, 1.0, 1, 1.0)",
        "def estimate_poisson_risk(mu, alt):\n    return PoissonSpikePrior.build(mu, 1.0)",
        "def estimate_multinomial_risk(q0, alt):\n    return MultinomialSimplexPrior(q0, 60, 2, 1.0, 1, 1.0)",
        "class _PoissonCells:\n    def bayes(self, priors):\n        return isinstance(priors[0], PoissonSpikePrior)",
        "spike = PoissonSpikePrior\nprior = spike(mu, 1, 1.0, 1.0, 2.7)",
        "from supgof import priors\npriors.MultinomialSimplexPrior.build(q0, n, 0.5)",
        "def estimate_poisson_risk(mu, alt):\n    return isinstance(alt, PoissonSpikePrior)",
        "from .priors import MultinomialSimplexPrior, PoissonSpikePrior",
        "def estimate_multinomial_risk(q0, alt):\n    return alt.c * alt.psi",
    ]
    assert [_prior_uses(ast.parse(src)) for src in spellings] == [[2], [2], [2], [2], [3], [1], [2], [], [], []]


_FFT_MODULES = ("numpy.fft", "scipy.fft", "scipy.fftpack")
_FFT_NAMES = {
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "fftpack", "fftconvolve", "oaconvolve",
}


def _fft_uses(tree: ast.AST) -> list[int]:
    """Lines that import an FFT module (``numpy.fft``, ``scipy.fft``,
    ``scipy.fftpack``) or an FFT function from any module, under any alias,
    or that reach one as an attribute (``np.fft.rfft``)."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if any(_is_under(name, module) for name in _imported_names(node) for module in _FFT_MODULES)
            or (isinstance(node, ast.ImportFrom) and any(alias.name in _FFT_NAMES for alias in node.names))
            or (isinstance(node, ast.Attribute) and node.attr in _FFT_NAMES)
        }
    )


def test_risk_makes_no_fft():
    """``risk`` holds each fixed-n product by its few significant frequencies
    and inverts it by one direct sum: no FFT in any spelling."""
    path = PACKAGE / "risk.py"
    assert _fft_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_fft_rule_sees_every_spelling():
    spellings = [
        "spectrum = np.fft.rfft(x, size)",
        "import numpy as xp\nz = xp.fft.irfft(f)",
        "from numpy.fft import rfft, irfft",
        "from numpy import fft\nfft.rfft(x)",
        "import numpy.fft as spectral",
        "from scipy import fft as sfft",
        "import scipy.fftpack",
        "from scipy.signal import fftconvolve",
        "product = np.convolve(a, b)",
        "size = _fft_len(n)",
    ]
    assert [_fft_uses(ast.parse(src)) for src in spellings] == [[1], [2], [1], [1, 2], [1], [1], [1], [1], [], []]


_SPEC_READS = {"load", "loads", "read_text", "read_bytes"}


def _spec_reads(tree: ast.AST) -> list[int]:
    """Lines outside a function named ``_read_spec`` that parse JSON or read a
    file's text: a ``load``, ``loads``, ``read_text`` or ``read_bytes``
    attribute, or any import from ``json``."""
    reader = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_read_spec"
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in reader
        and (
            (isinstance(node, ast.Attribute) and node.attr in _SPEC_READS)
            or (isinstance(node, ast.ImportFrom) and node.module == "json")
        )
    ]


def test_cli_reads_every_spec_in_one_place():
    """Only ``cli._read_spec`` turns a ``--null`` or ``--alt`` spec into JSON,
    so every spec meets the same file, encoding and JSON errors."""
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_read_spec" for node in tree.body)
    assert _spec_reads(tree) == []


def test_spec_rule_sees_every_spelling():
    spellings = [
        "def _load_null(spec):\n    return json.loads(spec)",
        "def _load(path):\n    return Path(path).read_text()",
        "import json as j\npayload = j.loads(text)",
        "from json import loads as parse",
        "payload = json.load(open(path))",
        "data = Path(path).read_bytes()",
        "def _read_spec(spec, what):\n    return json.loads(Path(spec).read_text())",
        "text = json.dumps(payload)",
    ]
    assert [_spec_reads(ast.parse(src)) for src in spellings] == [[2], [2], [2], [1], [1], [1], [], []]


def test_no_multinomial_sampling():
    """Fixed-n risk is exact (Poisson conditioning): no ``.multinomial(`` call, so no count sampler."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "multinomial"
    ]
    assert found == []


_CACHES = {"functools.cache", "functools.lru_cache"}


def _cache_uses(tree: ast.AST) -> list[int]:
    """Lines that import or reach ``functools.cache`` or ``functools.lru_cache``, under any alias."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and _CACHES & set(_imported_names(node)))
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and f"functools.{node.attr}" in _CACHES
        )
    ]


def test_no_cross_call_caches():
    """No ``functools.cache`` or ``lru_cache``: a cache that outlives a call hits on the
    benchmark's repeated jobs, so the benchmark would time a different program."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _cache_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_cache_rule_sees_every_spelling():
    spellings = [
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(): pass",
        "import functools as ft\nf = ft.cache(len)",
        "from functools import cache",
        "from functools import lru_cache as memo",
    ]
    assert [_cache_uses(ast.parse(src)) for src in spellings] == [[2], [2], [1], [1]]
    assert _cache_uses(ast.parse("import functools\nfunctools.reduce(max, [1])")) == []


_RATE_AND_TEST_RUN = """
import contextlib, io, json, os, sys, tempfile
import supgof.cli
poisson = json.dumps({"model": "poisson", "rates": [3.0, 2.0, 1.0]})
multinomial = json.dumps({"model": "multinomial", "probs": [0.5, 0.3, 0.2], "n": 10})
codes = []
with tempfile.TemporaryDirectory() as tmp:
    data = os.path.join(tmp, "counts.csv")
    with open(data, "w") as fh:
        fh.write("a,b,c\\n5,3,2\\n9,0,1\\n4,4,2\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(supgof.cli.main(["rate", "--null", poisson]))
        codes.append(supgof.cli.main(["rate", "--null", multinomial]))
        codes.append(supgof.cli.main(["test", "--null", poisson, "--data", data]))
        codes.append(supgof.cli.main(["test", "--null", multinomial, "--data", data]))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_import_leaves_scipy_stats_unloaded():
    """In a fresh interpreter, importing the CLI and running ``rate`` and
    ``test`` on a Poisson and a multinomial null loads no scipy module at all."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _RATE_AND_TEST_RUN], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout)
    assert result == {"codes": [0, 0, 0, 0], "scipy": []}


REPO = Path(__file__).resolve().parent.parent


def test_every_public_name_is_reached():
    """Each name in an ``__all__``, and each public method and property of a
    public class, is used by the package, a demo, the benchmark or an
    acceptance test.

    Unit tests do not count: a name that only its own tests reach is dead code.
    Members are matched by attribute name, whatever the class of the object.
    """
    sources = [
        *sorted((REPO / "src").rglob("*.py")),
        *sorted((REPO / "demos").glob("*.py")),
        *sorted((REPO / "bench").glob("*.py")),
        REPO / "tests" / "test_acceptance.py",
    ]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    public = []
    for module in pkgutil.iter_modules([str(PACKAGE)]):
        mod = importlib.import_module(f"supgof.{module.name}")
        for name in getattr(mod, "__all__", ()):
            public.append((f"{module.name}.{name}", name))
            obj = getattr(mod, name)
            if isinstance(obj, type):
                public.extend(
                    (f"{module.name}.{name}.{member}", member)
                    for member, value in vars(obj).items()
                    if not member.startswith("_")
                    and isinstance(value, (FunctionType, property, classmethod, staticmethod))
                )
    unreached = [label for label, name in public if name not in used]
    assert not unreached, f"public names that only unit tests reach: {unreached}"
