"""Tests for the compilation pipeline (IR, passes, CompiledKernel)."""

import pytest

from repro.core.compiler import (
    CompilerProfile,
    Opcode,
    build_ir,
    compile_kernel,
    default_pass_pipeline,
)
from repro.core.dtypes import DType
from repro.core.errors import CompilationError
from repro.core.kernel import KernelModel, LaunchConfig


def _model(**kw):
    defaults = dict(name="k", dtype=DType.float64, loads_global=2,
                    stores_global=1, flops=10, scalar_args=2, working_values=16)
    defaults.update(kw)
    return KernelModel(**defaults)


class TestBuildIR:
    def test_memory_ops_counted(self):
        ir = build_ir(_model(loads_global=7, stores_global=1))
        assert ir.count(Opcode.LDG) == 7
        assert ir.count(Opcode.STG) == 1

    def test_flops_split_preserves_total(self):
        ir = build_ir(_model(flops=100))
        total = ir.count(Opcode.FFMA) + ir.count(Opcode.FADD) + ir.count(Opcode.FMUL)
        assert total == pytest.approx(100)

    def test_shared_and_barrier_ops(self):
        ir = build_ir(_model(shared_loads=4, shared_stores=2, barriers=3))
        assert ir.count(Opcode.LDS) == 4
        assert ir.count(Opcode.STS) == 2
        assert ir.count(Opcode.BAR) == 3

    def test_atomics_lowered_initially_as_atom(self):
        ir = build_ir(_model(atomics=6))
        assert ir.count(Opcode.ATOM) == 6

    def test_mix_aggregates(self):
        ir = build_ir(_model())
        mix = ir.mix()
        assert mix[Opcode.LDG] == 2
        assert ir.total_instructions() == pytest.approx(sum(mix.values()))


class TestPasses:
    def test_constant_promotion_reduces_ldc(self):
        model = _model(scalar_args=4)
        promoted = compile_kernel(model, CompilerProfile(constant_promotion=True,
                                                         promoted_loads_per_scalar=0.5))
        plain = compile_kernel(model, CompilerProfile(constant_promotion=False,
                                                      constant_loads_per_scalar=2.0))
        assert promoted.instruction_mix[Opcode.LDC] < plain.instruction_mix[Opcode.LDC]
        assert promoted.uses_constant_memory and not plain.uses_constant_memory

    def test_fast_math_requires_availability(self):
        model = _model(divides=5)
        available = compile_kernel(model, CompilerProfile(fast_math_available=True),
                                   fast_math=True)
        unavailable = compile_kernel(model, CompilerProfile(fast_math_available=False),
                                     fast_math=True)
        assert available.fast_math is True
        assert unavailable.fast_math is False

    def test_fast_math_lowers_effective_flops(self):
        model = _model(divides=20, transcendentals=10)
        profile = CompilerProfile(fast_math_available=True)
        fast = compile_kernel(model, profile, fast_math=True)
        slow = compile_kernel(model, profile, fast_math=False)
        assert fast.effective_flops_per_thread < slow.effective_flops_per_thread
        assert fast.raw_flops_per_thread == slow.raw_flops_per_thread

    def test_register_estimate_scales_with_profile(self):
        model = _model(working_values=18)
        low = compile_kernel(model, CompilerProfile(register_scale=1.0, register_bias=3))
        high = compile_kernel(model, CompilerProfile(register_scale=1.15, register_bias=3))
        assert high.registers_per_thread > low.registers_per_thread

    def test_int_op_inflation(self):
        model = _model(int_ops=20)
        inflated = compile_kernel(model, CompilerProfile(int_op_scale=1.5))
        plain = compile_kernel(model, CompilerProfile(int_op_scale=1.0))
        assert inflated.instruction_mix[Opcode.IADD3] > plain.instruction_mix[Opcode.IADD3]

    def test_atomic_cas_lowering_expands_ops(self):
        model = _model(atomics=6)
        cas = compile_kernel(model, CompilerProfile(atomic_mode="cas",
                                                    cas_expected_retries=4))
        native = compile_kernel(model, CompilerProfile(atomic_mode="native"))
        assert cas.instruction_mix.get(Opcode.ATOM_CAS, 0) > 0
        assert native.instruction_mix.get(Opcode.ATOM_CAS, 0) == 0
        assert cas.atomic_throughput_scale < native.atomic_throughput_scale

    def test_spill_detection(self):
        model = _model(working_values=300)
        spilled = compile_kernel(model, CompilerProfile(spill_threshold_values=200))
        assert spilled.spilled
        assert spilled.instruction_mix.get(Opcode.STL, 0) > 0
        assert spilled.local_memory_bytes_per_thread > 0

    def test_no_spill_below_threshold(self):
        compiled = compile_kernel(_model(working_values=50),
                                  CompilerProfile(spill_threshold_values=200))
        assert not compiled.spilled

    def test_pathology_requires_atomics(self):
        profile = CompilerProfile(pathology_threshold_values=50,
                                  pathology_penalty=100.0)
        no_atomics = compile_kernel(_model(working_values=100, atomics=0), profile)
        with_atomics = compile_kernel(_model(working_values=100, atomics=6), profile)
        assert (with_atomics.effective_flops_per_thread
                > 10 * no_atomics.effective_flops_per_thread)

    def test_invalid_atomic_mode_rejected(self):
        with pytest.raises(CompilationError):
            compile_kernel(_model(), CompilerProfile(atomic_mode="magic"))


class TestCompiledKernel:
    def test_metadata(self):
        launch = LaunchConfig.for_elements(1024, 256)
        compiled = compile_kernel(_model(), CompilerProfile(name="test"),
                                  launch=launch, backend_name="mybackend")
        assert compiled.backend_name == "mybackend"
        assert compiled.launch is launch
        assert compiled.kernel_name == "k"

    def test_dram_bytes_match_model(self):
        compiled = compile_kernel(_model(loads_global=3, stores_global=1),
                                  CompilerProfile())
        assert compiled.dram_bytes_per_thread == pytest.approx(4 * 8)

    def test_sass_listing_text(self):
        compiled = compile_kernel(_model(), CompilerProfile(name="cuda"))
        listing = compiled.sass_listing()
        assert any("LDG" in line for line in listing)
        assert listing[0].startswith("//")

    def test_default_pipeline_order(self):
        names = [p.name for p in default_pass_pipeline()]
        assert names == ["constant-promotion", "fast-math", "register-allocation",
                         "atomic-lowering", "spill-analysis"]


class TestCompileCache:
    """Memoisation of compile_kernel on (model, profile, fast_math, passes)."""

    def setup_method(self):
        from repro.core.compiler import COMPILE_MEMO
        COMPILE_MEMO.clear()

    def test_identical_inputs_hit(self):
        from repro.core.compiler import compile_cache_info
        model = _model()
        profile = CompilerProfile()
        first = compile_kernel(model, profile)
        second = compile_kernel(model, profile)
        info = compile_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        assert first.instruction_mix == second.instruction_mix
        assert first.registers_per_thread == second.registers_per_thread
        # A hit shares the cached entry, so no caller can change it in place.
        with pytest.raises(AttributeError):
            first.notes.append("local annotation")
        with pytest.raises(TypeError):
            first.instruction_mix[Opcode.LDG] = 0.0
        with pytest.raises(AttributeError):
            first.registers_per_thread = 0
        assert compile_kernel(model, profile) == second

    def test_mutated_model_is_a_miss_not_stale(self):
        from repro.core.compiler import compile_cache_info
        model = _model(flops=10)
        profile = CompilerProfile()
        base = compile_kernel(model, profile)
        scaled = compile_kernel(model.scaled(flops=1000), profile)
        assert compile_cache_info()["misses"] == 2
        assert scaled.effective_flops_per_thread > base.effective_flops_per_thread

    def test_fast_math_and_profile_are_part_of_the_key(self):
        model = _model(transcendentals=8)
        slow = compile_kernel(model, CompilerProfile())
        fast = compile_kernel(model, CompilerProfile(), fast_math=True)
        other = compile_kernel(model, CompilerProfile(int_op_scale=2.0))
        assert fast.fast_math and not slow.fast_math
        assert fast.effective_flops_per_thread < slow.effective_flops_per_thread
        assert other.instruction_mix[Opcode.IADD3] > slow.instruction_mix[Opcode.IADD3]

    def test_launch_is_annotated_per_call_on_hits(self):
        from repro.core.compiler import compile_cache_info
        model = _model()
        profile = CompilerProfile()
        launch_a = LaunchConfig.make(4, 64)
        launch_b = LaunchConfig.make(8, 128)
        a = compile_kernel(model, profile, launch=launch_a)
        b = compile_kernel(model, profile, launch=launch_b)
        assert compile_cache_info()["hits"] == 1
        assert a.launch == launch_a and b.launch == launch_b

    def test_pass_pipeline_identity_in_key(self):
        from repro.core.compiler import compile_cache_info
        model = _model()
        profile = CompilerProfile()
        pipeline = default_pass_pipeline()
        compile_kernel(model, profile, passes=pipeline)
        compile_kernel(model, profile, passes=pipeline)          # same objects
        assert compile_cache_info()["hits"] == 1
        compile_kernel(model, profile, passes=default_pass_pipeline())
        assert compile_cache_info()["misses"] == 2               # fresh objects
