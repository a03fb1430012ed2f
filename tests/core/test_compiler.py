"""Tests for the backend lowering (compile_kernel, CompiledKernel)."""

import pytest

from repro.core.compiler import CompilerProfile, Opcode, compile_kernel
from repro.core.dtypes import DType
from repro.core.errors import CompilationError
from repro.core.kernel import KernelModel, LaunchConfig


def _model(**kw):
    defaults = dict(name="k", dtype=DType.float64, loads_global=2,
                    stores_global=1, flops=10, scalar_args=2, working_values=16)
    defaults.update(kw)
    return KernelModel(**defaults)


def _mix(profile=None, **kw):
    return compile_kernel(_model(**kw), profile or CompilerProfile()).instruction_mix


class TestInstructionMix:
    def test_memory_ops_counted(self):
        mix = _mix(loads_global=7, stores_global=1)
        assert mix[Opcode.LDG] == 7
        assert mix[Opcode.STG] == 1

    def test_flops_split_preserves_total(self):
        mix = _mix(flops=100)
        total = mix[Opcode.FFMA] + mix[Opcode.FADD] + mix[Opcode.FMUL]
        assert total == pytest.approx(100)

    def test_shared_and_barrier_ops(self):
        mix = _mix(shared_loads=4, shared_stores=2, barriers=3)
        assert mix[Opcode.LDS] == 4
        assert mix[Opcode.STS] == 2
        assert mix[Opcode.BAR] == 3
        assert Opcode.LDS not in _mix()

    def test_native_atomics_stay_atom(self):
        mix = _mix(CompilerProfile(atomic_mode="native"), atomics=6)
        assert mix[Opcode.ATOM] == 6
        assert Opcode.ATOM_CAS not in mix

    def test_mix_values_are_floats(self):
        mix = _mix()
        assert mix[Opcode.LDG] == 2
        assert all(type(count) is float for count in mix.values())


class TestLowering:
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


class TestCompileCache:
    """Memoisation of compile_kernel on (model, profile, fast_math, backend)."""

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


# One model per lowering branch: (model fields, profile fields, fast_math,
# ordered instruction mix, notes, uses_constant_memory, registers, DRAM bytes).
ORACLE = {
    "cas_spill": (
        dict(loads_global=3, stores_global=1, flops=40, int_ops=12, divides=2,
             transcendentals=1, atomics=6, shared_loads=4, shared_stores=2,
             barriers=1, scalar_args=3, working_values=72),
        dict(atomic_mode="cas", cas_expected_retries=4.0,
             spill_threshold_values=64, int_op_scale=1.2),
        False,
        [("LDG", 33.0), ("STG", 1.0), ("LDS", 4.0), ("STS", 2.0),
         ("BAR", 1.0), ("FFMA", 18.0), ("FADD", 14.0), ("FMUL", 8.0),
         ("FDIV", 2.0), ("MUFU", 1.0), ("IADD3", 7.199999999999999),
         ("IMAD", 4.319999999999999), ("ISETP", 1.2000000000000002),
         ("BRA", 1.2000000000000002), ("MOV", 7.0), ("LDC", 6.0),
         ("ATOM_CAS", 30.0), ("STL", 16.0), ("LDL", 16.0)],
        ("atomics lowered to compare-and-swap loops",
         "spilled 8 live values to local memory"),
        False, 75, 400.0),
    "promotion_fast_math": (
        dict(loads_global=2, stores_global=1, flops=10, transcendentals=4,
             scalar_args=4, working_values=18),
        dict(constant_promotion=True, promoted_loads_per_scalar=0.5,
             register_scale=1.15),
        True,
        [("LDG", 2.0), ("STG", 1.0), ("FFMA", 4.5), ("FADD", 3.5),
         ("FMUL", 2.0), ("MUFU", 4.0), ("IADD3", 4.0), ("IMAD", 2.4),
         ("ISETP", 1.0), ("BRA", 1.0), ("MOV", 8.0), ("LDC", 2.0)],
        ("scalars promoted to constant memory",
         "fast-math: special functions lowered to HW approximations"),
        True, 24, 24),
    "fast_math_unavailable": (
        dict(loads_global=2, stores_global=1, flops=10, divides=3,
             scalar_args=2, working_values=16),
        dict(fast_math_available=False),
        True,
        [("LDG", 2.0), ("STG", 1.0), ("FFMA", 4.5), ("FADD", 3.5),
         ("FMUL", 2.0), ("FDIV", 3.0), ("IADD3", 4.0), ("IMAD", 2.4),
         ("ISETP", 1.0), ("BRA", 1.0), ("MOV", 6.0), ("LDC", 4.0)],
        ("fast-math requested but unavailable in this toolchain",),
        False, 19, 24),
    "pathology": (
        dict(loads_global=5, stores_global=1, flops=200, atomics=2,
             scalar_args=1, working_values=80),
        dict(pathology_threshold_values=70, pathology_penalty=9.0,
             spill_threshold_values=100),
        False,
        [("LDG", 5.0), ("STG", 1.0), ("FFMA", 90.0), ("FADD", 70.0),
         ("FMUL", 40.0), ("IADD3", 4.0), ("IMAD", 2.4), ("ISETP", 1.0),
         ("BRA", 1.0), ("MOV", 5.0), ("LDC", 2.0), ("ATOM", 2.0)],
        ("codegen pathology: working set exceeds backend threshold",),
        False, 83, 48),
    "no_scalars": (
        dict(loads_global=2, stores_global=1, flops=10, scalar_args=0,
             working_values=4),
        dict(constant_promotion=True),
        False,
        [("LDG", 2.0), ("STG", 1.0), ("FFMA", 4.5), ("FADD", 3.5),
         ("FMUL", 2.0), ("IADD3", 4.0), ("IMAD", 2.4), ("ISETP", 1.0),
         ("BRA", 1.0), ("MOV", 4.0)],
        (),
        False, 8, 24),
    "cas_without_atomics": (
        dict(loads_global=2, stores_global=2, flops=6, int_ops=4,
             scalar_args=2, working_values=12),
        dict(atomic_mode="cas"),
        False,
        [("LDG", 2.0), ("STG", 2.0), ("FFMA", 2.7),
         ("FADD", 2.0999999999999996), ("FMUL", 1.2000000000000002),
         ("IADD3", 2.0), ("IMAD", 1.2), ("ISETP", 1.0), ("BRA", 1.0),
         ("MOV", 6.0), ("LDC", 4.0)],
        (),
        False, 15, 32),
}


@pytest.mark.parametrize("case", sorted(ORACLE))
def test_compile_oracle(case):
    """Pinned lowering of one model per branch: mix order, notes, types."""
    (model_kw, profile_kw, fast_math, mix, notes, constant_memory,
     registers, dram) = ORACLE[case]
    model = KernelModel(name=case, dtype=DType.float64, **model_kw)
    compiled = compile_kernel(model, CompilerProfile(**profile_kw),
                              fast_math=fast_math)
    assert list(compiled.instruction_mix.items()) == mix
    assert compiled.notes == notes
    assert compiled.uses_constant_memory is constant_memory
    assert compiled.registers_per_thread == registers
    assert compiled.dram_bytes_per_thread == dram
    assert type(compiled.dram_bytes_per_thread) is type(dram)
