"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of each layer module in every
krein_clifford namespace that holds it, so a call through a name imported
with ``from ... import`` is seen as well as one through the module.
``Multivector.__mul__`` is wrapped on the class.  `uninstall` puts the
originals back.

Each wrapped call keeps a frame on a stack: its duration minus the time of
the wrapped calls it makes is its self time, charged to its layer.  Named
stages (``wick_lattice.spectrum_s`` and the like) take the inclusive time
of the outermost call into the stage.  Hooks count work (term pairs,
operator dimensions, residuals) after the call returns; their time is
charged to the pseudo-layer ``trace`` rather than to the caller.

Everything runs on one thread with no queues, so no layer ever waits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import oracles

PKG = "krein_clifford"
LAYER_OF_MODULE = {
    "_blade_py": "kernel",
    "clifford_core": "clifford_core",
    "spinor_rep": "spinor_rep",
    "signature_detect": "signature_detect",
    "wick_lattice": "wick_lattice",
    "algebraic_spinors": "algebraic_spinors",
    "verify": "verify",
    "formats": "cli",
    "cli": "cli",
}
# blade_sign runs once per term pair inside gp_dense's double loop; a
# wrapper there would add a Python call per pair, so the kernel is timed at
# gp_dense and its pairs are counted from the operand sizes instead.
SKIP = {("_blade_py", "blade_sign")}

STAGES = {
    "clifford_core.gram_s": ("clifford_core.sigma_product_gram",),
    "clifford_core.real_structure_s": (
        "clifford_core.make_real_structure",
        "clifford_core.make_sigma_from_vector",
        "clifford_core.euclidean_structure",
    ),
    "clifford_core.inertia_s": ("clifford_core.hermitian_inertia",),
    "spinor_rep.represent_s": ("spinor_rep.represent",),
    "spinor_rep.krein_form_s": ("spinor_rep.build_krein_form",),
    "spinor_rep.charge_conjugation_s": ("spinor_rep.build_charge_conjugation",),
    "spinor_rep.ko_signs_s": ("spinor_rep.ko_signs",),
    "signature_detect.cone_test_s": ("signature_detect.cone_test",),
    "wick_lattice.assembly_s": (
        "wick_lattice.flat_dirac_package",
        "wick_lattice.build_flat_dirac",
        "wick_lattice.build_fundamental_symmetry",
        "wick_lattice.build_field_charge_conjugation",
    ),
    "wick_lattice.rotate_s": ("wick_lattice.wick_rotate_operator", "wick_lattice.inverse_wick"),
    "wick_lattice.residual_s": (
        "wick_lattice.operator_max_diff",
        "wick_lattice.krein_selfadjoint_residual",
        "wick_lattice.anticommutation_residual",
    ),
    "wick_lattice.spectrum_s": ("wick_lattice.spectrum",),
    "algebraic_spinors.ideal_s": (
        "algebraic_spinors.ideal_from_idempotent",
        "algebraic_spinors.build_primitive_idempotent",
    ),
    "algebraic_spinors.restricted_product_s": ("algebraic_spinors.restricted_sigma_product",),
    "algebraic_spinors.cstar_norm_s": (
        "algebraic_spinors.cstar_norm",
        "algebraic_spinors.cstar_identity_check",
        "algebraic_spinors.rho_operator_norm",
    ),
}
STAGE_OF = {fn: stage for stage, fns in STAGES.items() for fn in fns}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("kernel.calls", "count"),
    ("kernel.term_pairs", "count"),
    ("kernel.pairs_per_call", "pairs/call"),
    ("kernel.self_s", "s"),
    ("kernel.ns_per_pair", "ns"),
    ("clifford_core.products", "count"),
    ("clifford_core.self_s", "s"),
    ("clifford_core.gram_s", "s"),
    ("clifford_core.real_structure_s", "s"),
    ("clifford_core.inertia_s", "s"),
    ("spinor_rep.gamma_builds", "count"),
    ("spinor_rep.build_reuse_ratio", "ratio"),
    ("spinor_rep.represent_calls", "count"),
    ("spinor_rep.represent_s", "s"),
    ("spinor_rep.krein_form_s", "s"),
    ("spinor_rep.charge_conjugation_s", "s"),
    ("spinor_rep.ko_signs_s", "s"),
    ("spinor_rep.self_s", "s"),
    ("signature_detect.cone_tests", "count"),
    ("signature_detect.cone_tests_per_s", "1/s"),
    ("signature_detect.self_s", "s"),
    ("signature_detect.oracle_disagreements", "count"),
    ("wick_lattice.assembly_s", "s"),
    ("wick_lattice.rotate_s", "s"),
    ("wick_lattice.residual_s", "s"),
    ("wick_lattice.spectrum_s", "s"),
    ("wick_lattice.operator_dim_sum", "count"),
    ("wick_lattice.residual_max", "abs"),
    ("wick_lattice.self_s", "s"),
    ("algebraic_spinors.ideal_s", "s"),
    ("algebraic_spinors.restricted_product_s", "s"),
    ("algebraic_spinors.cstar_norm_s", "s"),
    ("algebraic_spinors.cstar_residual_max", "abs"),
    ("algebraic_spinors.self_s", "s"),
    ("cli.self_ms_per_job", "ms"),
    ("cli.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _coords(v) -> list[float]:
    """Real coordinates of a cone-test vector (a sequence or a grade-1
    Multivector, read through its public coefficient map)."""
    if hasattr(v, "coeffs"):
        cs = v.coeffs
        return [cs.get(1 << i, 0.0).real for i in range(v.sig.n)]
    return [float(x) for x in v]


class Tracer:
    def __init__(self):
        self.layer_self = defaultdict(float)
        self.stage_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.gamma_sigs: set[tuple[int, int]] = set()
        self._stage_depth = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.hooks = {
            "_blade_py.gp_dense": self._on_gp_dense,
            "clifford_core.Multivector.__mul__": self._on_mul,
            "spinor_rep.build_gammas": self._on_build_gammas,
            "signature_detect.cone_test": self._on_cone_test,
            "wick_lattice.spectrum": self._on_spectrum,
            "wick_lattice.operator_max_diff": self._on_wick_residual,
            "wick_lattice.krein_selfadjoint_residual": self._on_wick_residual,
            "wick_lattice.anticommutation_residual": self._on_wick_residual,
            "algebraic_spinors.cstar_identity_check": self._on_cstar_residual,
        }

    # -- counting hooks: (args, result) of a call that returned -----------

    def _on_gp_dense(self, args, result):
        self.count["kernel.term_pairs"] += len(args[0]) * len(args[2])

    def _on_mul(self, args, result):
        a, b = args
        if isinstance(b, type(a)) and a.coeffs and b.coeffs:
            self.count["clifford_core.nonempty_products"] += 1

    def _on_build_gammas(self, args, result):
        self.gamma_sigs.add((args[0].p, args[0].q))

    def _on_cone_test(self, args, result):
        sig, v = args[0], args[3]
        expected = oracles.cone_expectation(sig.p, sig.q, _coords(v))
        if (result.in_cone, result.component) != expected:
            self.count["signature_detect.oracle_disagreements"] += 1

    def _on_spectrum(self, args, result):
        self.count["wick_lattice.operator_dim_sum"] += args[0].matrix.shape[0]

    def _on_wick_residual(self, args, result):
        key = "wick_lattice.residual_max"
        self.count[key] = max(self.count[key], result)

    def _on_cstar_residual(self, args, result):
        key = "algebraic_spinors.cstar_residual_max"
        self.count[key] = max(self.count[key], result)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        clock = time.perf_counter
        stack, layer_self, calls = self._stack, self.layer_self, self.calls
        stage = STAGE_OF.get(key)
        depth, stage_s = self._stage_depth, self.stage_s
        hook = self.hooks.get(key)

        def traced(*args, **kwargs):
            if stage:
                depth[stage] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                layer_self[layer] += dt - frame[0]
                calls[key] += 1
                if stage:
                    depth[stage] -= 1
                    if not depth[stage]:
                        stage_s[stage] += dt
            if hook:
                hook(args, result)
                th = clock() - t1
                layer_self["trace"] += th
                if stack:
                    stack[-1][0] += th
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        modules = [importlib.import_module(f"{PKG}.{m}") for m in LAYER_OF_MODULE]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                public = inspect.isfunction(fn) and not name.startswith("_")
                if public and fn.__module__ == mod.__name__ and (short, name) not in SKIP:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}", LAYER_OF_MODULE[short]))
        core = sys.modules[f"{PKG}.clifford_core"]
        mul = core.Multivector.__mul__
        self._patched.append((core.Multivector, "__mul__", mul))
        core.Multivector.__mul__ = self._wrap(mul, "clifford_core.Multivector.__mul__", "clifford_core")
        for name in sorted(sys.modules):
            mod = sys.modules[name]
            if mod is None or not (name == PKG or name.startswith(PKG + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    orig, wrapper = wrappers[id(value)]
                    if orig is value:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, jobs: int) -> dict[str, float]:
        """Every per-layer metric except `cli.import_s` and
        `trace.overhead_frac`, which the caller measures."""
        c, s, ls = self.count, self.stage_s, self.layer_self
        kcalls = self.calls["_blade_py.gp_dense"]
        pairs = c["kernel.term_pairs"]
        builds = self.calls["spinor_rep.build_gammas"]
        cones = self.calls["signature_detect.cone_test"]
        cone_s = s["signature_detect.cone_test_s"]
        out = {
            "kernel.calls": kcalls,
            "kernel.term_pairs": pairs,
            "kernel.pairs_per_call": pairs / kcalls if kcalls else 0.0,
            "kernel.self_s": ls["kernel"],
            "kernel.ns_per_pair": 1e9 * ls["kernel"] / pairs if pairs else 0.0,
            "clifford_core.products": self.calls["clifford_core.Multivector.__mul__"],
            "clifford_core.self_s": ls["clifford_core"],
            "spinor_rep.gamma_builds": builds,
            "spinor_rep.build_reuse_ratio": len(self.gamma_sigs) / builds if builds else 0.0,
            "spinor_rep.represent_calls": self.calls["spinor_rep.represent"],
            "spinor_rep.self_s": ls["spinor_rep"],
            "signature_detect.cone_tests": cones,
            "signature_detect.cone_tests_per_s": cones / cone_s if cone_s else 0.0,
            "signature_detect.self_s": ls["signature_detect"],
            "signature_detect.oracle_disagreements": c["signature_detect.oracle_disagreements"],
            "wick_lattice.operator_dim_sum": c["wick_lattice.operator_dim_sum"],
            "wick_lattice.residual_max": c["wick_lattice.residual_max"],
            "wick_lattice.self_s": ls["wick_lattice"],
            "algebraic_spinors.cstar_residual_max": c["algebraic_spinors.cstar_residual_max"],
            "algebraic_spinors.self_s": ls["algebraic_spinors"],
            "cli.self_ms_per_job": 1e3 * ls["cli"] / jobs if jobs else 0.0,
        }
        for stage in STAGES:
            if stage != "signature_detect.cone_test_s":
                out[stage] = s[stage]
        return out
