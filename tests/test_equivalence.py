"""Property-based compiler correctness: any program, any diversification.

The central invariant of DESIGN.md section 6: a diversified binary is
observationally equivalent to the baseline — and both match the reference
interpreter — for *any* seed and any combination of R2C features.  A
hypothesis-driven program generator produces random (but well-defined:
store-before-load, bounded loops, DAG call graphs) modules, and every one
is executed three ways.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import R2CConfig
from repro.rng import DiversityRng
from repro.toolchain.builder import IRBuilder
from repro.toolchain.interp import interpret_module
from tests.conftest import assert_equivalent, run_compiled


def generate_random_module(seed: int) -> object:
    """Deterministically generate a random, well-defined module."""
    rng = DiversityRng(seed).child("proggen")
    ir = IRBuilder(f"rand{seed}")

    n_globals = rng.randint(0, 3)
    for g in range(n_globals):
        ir.global_var(f"g{g}", init=(rng.randint(0, 999),))

    function_names = []
    n_functions = rng.randint(1, 4)
    for index in range(n_functions):
        n_params = rng.choice([0, 1, 1, 2, 2, 3, 7, 8])
        params = [f"p{k}" for k in range(n_params)]
        fb = ir.function(f"fn{index}", params=params)
        values = [fb.const(rng.randint(-50, 50))]
        for p in params:
            values.append(fb.param(p))

        def random_value():
            return rng.choice(values)

        for _ in range(rng.randint(2, 10)):
            kind = rng.randint(0, 6)
            if kind == 0:
                values.append(fb.add(random_value(), random_value()))
            elif kind == 1:
                values.append(fb.mul(random_value(), rng.randint(-9, 9)))
            elif kind == 2:
                values.append(fb.bxor(random_value(), random_value()))
            elif kind == 3:
                divisor = rng.randint(1, 13)
                values.append(fb.div(random_value(), divisor))
            elif kind == 4:
                divisor = rng.randint(1, 13)
                values.append(fb.mod(random_value(), divisor))
            elif kind == 5 and n_globals:
                values.append(fb.load_global(f"g{rng.randint(0, n_globals - 1)}"))
            elif kind == 6 and function_names:
                callee = rng.choice(function_names)
                callee_fn = ir.module.functions[callee]
                args = [random_value() for _ in callee_fn.params]
                values.append(fb.call(callee, args))
            else:
                values.append(fb.sub(random_value(), 1))

        # A conditional, then a bounded loop summing values.
        cond = fb.cmp(rng.choice(["lt", "ge", "eq"]), random_value(), random_value())
        fb.cbr(cond, "then", "else")
        fb.new_block("then")
        then_value = fb.add(random_value(), 1)
        fb.local("result")
        fb.store_local("result", then_value)
        fb.br("join")
        fb.new_block("else")
        fb.store_local("result", random_value())
        fb.br("join")
        fb.new_block("join")
        trip = rng.randint(1, 6)
        ivar = fb.counted_loop(trip, "loop", "after")
        i = fb.load_local(ivar)
        fb.store_local("result", fb.add(fb.load_local("result"), i))
        fb.loop_backedge(ivar, "loop")
        fb.new_block("after")
        fb.ret(fb.band(fb.load_local("result"), 0xFFFF_FFFF))
        function_names.append(fb.fn.name)

    main = ir.function("main")
    for name in function_names:
        fn = ir.module.functions[name]
        args = [rng.randint(-100, 100) for _ in fn.params]
        main.out(main.call(name, args))
    main.ret(0)
    return ir.finish()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program_seed=st.integers(min_value=0, max_value=10**6),
    config_seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(["push", "avx"]),
)
def test_full_r2c_is_semantics_preserving(program_seed, config_seed, mode):
    module = generate_random_module(program_seed)
    assert_equivalent(module, R2CConfig.full(seed=config_seed, btra_mode=mode))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_seed=st.integers(min_value=0, max_value=10**6))
def test_baseline_matches_interpreter(program_seed):
    module = generate_random_module(program_seed)
    assert_equivalent(module, R2CConfig.baseline())


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program_seed=st.integers(min_value=0, max_value=10**6),
    config_seed=st.integers(min_value=0, max_value=10**6),
)
def test_ablation_variants_are_semantics_preserving(program_seed, config_seed):
    module = generate_random_module(program_seed)
    base = R2CConfig.full(seed=config_seed, btra_mode="push")
    assert_equivalent(module, base.replace(unsafe_racy_btras=True))
    assert_equivalent(module, base.replace(unsafe_callee_btras=True))
    assert_equivalent(module, base.replace(btra_integrity_check=True))
    assert_equivalent(module, base.replace(unsafe_btdp_no_guard=True))


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program_seed=st.integers(min_value=0, max_value=10**6),
    component=st.sampled_from(
        ["btra_push_only", "btra_avx_only", "btdp_only", "prolog_only", "layout_only", "oia_only"]
    ),
)
def test_component_configs_are_semantics_preserving(program_seed, component):
    module = generate_random_module(program_seed)
    config = getattr(R2CConfig, component)(seed=program_seed % 97)
    assert_equivalent(module, config)


def test_generator_is_deterministic():
    a = generate_random_module(1234)
    b = generate_random_module(1234)
    assert interpret_module(a) == interpret_module(b)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program_seed=st.integers(min_value=0, max_value=10**6),
    config_seed=st.integers(min_value=0, max_value=10**6),
)
def test_backends_agree_on_random_programs(program_seed, config_seed):
    """The jit engine is observationally identical to the
    reference loop — full ExecutionResult, not just exit/output — for any
    generated program under baseline and fully diversified builds."""
    import dataclasses

    module = generate_random_module(program_seed)
    for config in (R2CConfig.baseline(), R2CConfig.full(seed=config_seed)):
        results = {}
        for backend in ("reference", "jit"):
            result, _ = run_compiled(
                module,
                config,
                backend=backend,
                count_opcodes=True,
                attribute_tags=True,
            )
            results[backend] = dataclasses.asdict(result)
        assert results["reference"] == results["jit"]
