"""Recorded traces are pinned byte-for-byte.

The digests below are the sha256 of each trace's v3 column encoding
(:func:`repro.isa.binfmt.write_column_trace`), which is what the trace
corpus stores.  They fix the exact operand bits, flags, addresses, PCs
and dataflow edges the recorder and the assembler machine produce, so a
change to how recording builds its columns cannot silently shift a
corpus object.  The parity tests check that a recorder's column view
and the event view it materializes describe the same trace.
"""

from __future__ import annotations

import hashlib
import io
import math

import pytest

from repro.arch.ieee754 import bits_to_float64, float64_to_bits
from repro.images import generate
from repro.isa.binfmt import write_column_trace
from repro.isa.columns import ColumnBatch
from repro.isa.machine import Machine, assemble
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAMS
from repro.workloads.khoros import TABLE7_ORDER, run_kernel
from repro.workloads.perfect import PERFECT_APPS, run_perfect
from repro.workloads.recorder import OperationRecorder
from repro.workloads.speccfp import SPECCFP_APPS, run_speccfp

MM_SCALE = 0.02
MM_IMAGES = ("lablabel", "mandrill")
APP_SCALE = 0.05
MACHINE_N = 24

GOLDEN = {
    "machine/dot_product":
        "0293f64b8e0b47633cab2c0ce306bd04bfe8f424453cef3963ec8c951c4a12c0",
    "machine/gamma_lut":
        "d13c1794dafa0ccce49ac399bd14c11611526b8112e48622c5b053c8a7910b68",
    "machine/memo_showcase":
        "b7b20ddbf8fcf203f463e44f97f7f6cb9f9cd3ff7f153187839e364d2dcf9208",
    "machine/saxpy":
        "5b6da8d4abe517a1375a374a6cda05c199d4c87f9c5c5acd85b16c22cc24aeda",
    "machine/sobel_gx":
        "d7b4dc37fe67323311c7604134b644f7bb1f6237f6ac6a379a16f19829fe7ca4",
    "machine/vector_normalize":
        "d70d481cee1cebaf00672005d2f006b235d7c706c52ab750e3e3957c0f1ee427",
    "mm/vbpf/lablabel":
        "60b50a1be02a4ee999a281bd4db491b84a8ffa9e3e996928bc563fa6bc2b7dd4",
    "mm/vbpf/mandrill":
        "faa2a808750b450d600751f6280870ee26c00ef98b99c324f56fa65b5c6e3437",
    "mm/vbrf/lablabel":
        "9f4145c1ace67d49ed6511c84b55ce3ff5ae859179e43742d8f54b07756b7b79",
    "mm/vbrf/mandrill":
        "f0365c62a2a9f762a2d294e9b30010699ee0aecf4641a5b18a668b0551c5bfcb",
    "mm/vcost/lablabel":
        "da388789e61a3d1da406748b85b3601bab88c85d508c488e5324f94e4b3cea47",
    "mm/vcost/mandrill":
        "d0d7e74d46c8ed3929f3ead9cf35817469b725041f01816e1fb5bc80580c39c1",
    "mm/vdetilt/lablabel":
        "f96972db1c69d8a5a5049e8b60104fabc0dd84b69cbfdae184ad368af0e442af",
    "mm/vdetilt/mandrill":
        "91f331c5d5f06fd6a575ca941fd3ee1d9dca5711b2c66853fc0dc7099d33860e",
    "mm/vdiff/lablabel":
        "30f2b542984560ce505be26ba40e840c439862e0a44a9a431c94d5ab961daeb1",
    "mm/vdiff/mandrill":
        "cc5da41dc5a620d016a7ddccd41fe349caa9df266ca055361bf3b53e4ca524ed",
    "mm/venhance/lablabel":
        "f052cd81cf21b463cbf8e5826ab7f2aa1f695525716d5959eee1eb3c58b64fcf",
    "mm/venhance/mandrill":
        "2221b39dee47dcae25ffa7939b3eaa0e480e9f6ae06cc7894e167c9372869331",
    "mm/venhpatch/lablabel":
        "e8df533af981401b82637789796798bd71f7f0f1a2e4a2e905d21575e1c1a5f5",
    "mm/venhpatch/mandrill":
        "ebd34f67072897c48c3125c12d12c2b67c495aa87e1de141d9e7aee40b2306a2",
    "mm/vgauss/lablabel":
        "53dd3b2128b968088d105db860c3a7afb1b71e90933a240658148a2f3356c07e",
    "mm/vgauss/mandrill":
        "c78ed72e6bda5142257e9fa06029d9270ffc3cb1e0f35f296714a14753f5fcaf",
    "mm/vgef/lablabel":
        "6a24ee9f04e6a4af241115845fd6c8d7629516159e8e7263c072125cfea4ca8a",
    "mm/vgef/mandrill":
        "a4791bd31cc5952d483c7db667d68bc916abbaf88fb2459f68248eae706fbf80",
    "mm/vgpwl/lablabel":
        "b675c639a2223eb96740eace1909d305ddfaca3eb864506a418fb6e124250c66",
    "mm/vgpwl/mandrill":
        "8beed21b8f282654f59e6553b5dfd2c5f51613c06f984c60c0444e0ae9153d44",
    "mm/vkmeans/lablabel":
        "99c15ee1b2241d9ec076c32f46a74aa1b8ba85ff975b5abe13ae428a735aab51",
    "mm/vkmeans/mandrill":
        "99c9bd6991eef796269ca1fa86acaf2d4dc3c80f2a874203a079815bff79d439",
    "mm/vmpp/lablabel":
        "a0353c2bf151099fb6abf725e9f104bccddf47842a22bb200e30f57a675f0732",
    "mm/vmpp/mandrill":
        "c633454ee00fc448db818cb995f4e94d0d9b63f34226d7276a18096eb01f8e47",
    "mm/vrect2pol/lablabel":
        "a1824974843e30efde807fe0be316ef9963d056a67705e5cec2fc86a0ac3a80f",
    "mm/vrect2pol/mandrill":
        "69603d8142b17d98a06f5e3debfb5f4f4c1b16d1ee8c74d9f67b76446993298a",
    "mm/vslope/lablabel":
        "4c077539c51ac9765e598c84badbbb35ed0f0e628f021746683ff74aa7c0aaec",
    "mm/vslope/mandrill":
        "ae5ea8adc46d7d9f3534211796a170e0775556be5f0e12512c419c20596e4d53",
    "mm/vspatial/lablabel":
        "2fbbe1e9f227bd0e7b10b65e5876787ff570e122b9889d812d735a11126421e0",
    "mm/vspatial/mandrill":
        "f5fc87d7b9aa3fe70c24be729f8b3c514ffe1faa8122cdfccf798fe4824a5daf",
    "mm/vsurf/lablabel":
        "261ab92e2b7f3cce64a7dc436c97e8b4fc77930499c44a6f891a4a5dbff656ea",
    "mm/vsurf/mandrill":
        "17c6f3c8d2e1998e117b4c8ce86f470e94794d5a5db57616c84646475cca4205",
    "mm/vwarp/lablabel":
        "72272ae86e6623d4ad5ad57ac90f4ef3fa1bbdcb49e01f5d6e7f61013745e19b",
    "mm/vwarp/mandrill":
        "0584fa778cdffdb61a8fb6568c3ed62ce50ea63570d9ec2cc999d5ad89369a62",
    "perfect/ADM":
        "3f95e3894a03c21363409d4cec0f98577e7f1ed7c55713a127cc5a14f053d678",
    "perfect/ARC2D":
        "e542457656e63bb0c3568ba9aba6ba65cd0e150fe584852dc7f8177f0d205f8e",
    "perfect/FLO52":
        "a33c3ca68e5306057c3a649b1e311fc2d95d9bf43966f16702b881b4279abd18",
    "perfect/MDG":
        "3a1bcdccb3e9d655c42c05687dbba61fe19db7cc5c5dd56060caff14597b39eb",
    "perfect/OCEAN":
        "f04b58f8892dd91f4ba637bff41d928e94edaa84d5eabbdac49d68abc0c12298",
    "perfect/QCD":
        "90041c44440f9d0d6f36f190a2de5fb5bca6ca362d45a54e25bdaeaefad49b22",
    "perfect/SPEC77":
        "8bce40d6b9cf08534a075ec1868288da73a4329a96240e8ed6a3a2da28378ac7",
    "perfect/TRACK":
        "98acd6387dd5fa2e00748267ca9e311eac923c7d1349d7248bfbacc9f423f68b",
    "perfect/TRFD":
        "3ef74c5f29d3a178f63d649ef9e66e1f6083f1b81abe7fc3bdb2092daf6b89a0",
    "sites/vgauss/mandrill":
        "aaf4a10e9f29fc424a0928347ae996c21df2091187d339c56e9f59d536f3ce73",
    "spec/applu":
        "d65d0d5c434c3ab2a243b5f3929288737400e25f9146d2f17069c5b4bc0ad87f",
    "spec/apsi":
        "8726d78fafcb170aa1f355d46f7f12d24b7dacf63eedc8bfa3f5ed4069110a09",
    "spec/fpppp":
        "74465044706554f22914209f0ee9e1267051cd89ce9b14b5b008f3079e191197",
    "spec/hydro2d":
        "676c03cc419a8028ad19e422b2698de8045cf979c47b9c5ae8b3212bb1c3ec23",
    "spec/mgrid":
        "f115febbb957a280f595095469d2be298ccb5f020909343d45504d7cdb7d1e37",
    "spec/su2cor":
        "024ba8432c9913b01aa13ae96ca290280770f1f71b6944de24455e50255db45f",
    "spec/swim":
        "8a2c972f93f1885a4196d089628c66a316887cecb4506c0244c638881c699c06",
    "spec/tomcatv":
        "584567b95acaa3b8372fe33e85e5f1210acf5ffe3e4150df47bf98e4837ba23e",
    "spec/turb3d":
        "dae794186d6337ba6491caddfa955ec4984082bb8503408dc704a906ba5fee33",
    "spec/wave5":
        "890870cba98395f782490b5796e13d16aaf6038fb3223c699f9dce68a45b203b",
}


def _digest(trace) -> str:
    buffer = io.BytesIO()
    write_column_trace(trace, buffer)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


def _mm(kernel: str, image: str, record_sites: bool = False):
    recorder = OperationRecorder(record_sites=record_sites)
    run_kernel(kernel, recorder, generate(image, scale=MM_SCALE))
    return recorder.trace


def _perfect(app: str):
    recorder = OperationRecorder()
    run_perfect(app, recorder, scale=APP_SCALE)
    return recorder.trace


def _speccfp(app: str):
    recorder = OperationRecorder()
    run_speccfp(app, recorder, scale=APP_SCALE)
    return recorder.trace


def _machine(program: str):
    """A bundled program seeded the way ``repro-trace asm`` seeds it."""
    machine = Machine(assemble(PROGRAMS[program]))
    machine.int_regs[1] = MACHINE_N
    values = [float((i * 7) % 16 + 1) for i in range(MACHINE_N)]
    machine.write_doubles(0x1000, values)
    machine.write_doubles(0x2000, values[::-1])
    machine.run()
    return machine.trace


CASES = {
    **{
        f"mm/{kernel}/{image}": (lambda k=kernel, i=image: _mm(k, i))
        for kernel in TABLE7_ORDER
        for image in MM_IMAGES
    },
    **{f"perfect/{app}": (lambda a=app: _perfect(a)) for app in PERFECT_APPS},
    **{f"spec/{app}": (lambda a=app: _speccfp(a)) for app in SPECCFP_APPS},
    "sites/vgauss/mandrill": lambda: _mm("vgauss", "mandrill", True),
    **{f"machine/{name}": (lambda n=name: _machine(n)) for name in PROGRAMS},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorded_trace_bytes_are_pinned(case):
    assert _digest(CASES[case]()) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


# -- column view vs event view ------------------------------------------------


def _assert_same_columns(left: ColumnBatch, right: ColumnBatch) -> None:
    for name in (
        "opcode_col", "flags_col", "a_col", "b_col", "result_col",
        "address_col", "pc_col", "dst_col", "src_offsets", "srcs_col",
    ):
        assert getattr(left, name) == getattr(right, name), name
    assert left.wide == right.wide


def _exact(event) -> tuple:
    """``event`` with floats replaced by their bit patterns, so NaN
    payloads and ``-0.0`` compare exactly."""
    return tuple(
        ("f", float64_to_bits(v)) if isinstance(v, float) else (type(v), v)
        for v in event
    )


def _assert_parity(trace) -> None:
    columns = trace.columns()
    events = trace.events
    rebuilt = ColumnBatch.from_events(events)
    _assert_same_columns(columns, rebuilt)
    # The bulk decoder against the one-event-at-a-time reference.
    assert [_exact(e) for e in events] == [
        _exact(columns.event(i)) for i in range(len(columns))
    ]


def test_recorded_columns_match_materialized_events():
    _assert_parity(_mm("vgauss", "mandrill", record_sites=True))


def test_machine_columns_match_materialized_events():
    _assert_parity(_machine("memo_showcase"))


def test_corner_operands_survive_both_views():
    recorder = OperationRecorder()
    recorder.imul(2 ** 62, 4)            # result outside int64: wide
    recorder.imul(-(2 ** 63), 1)         # int64 corner, exact
    recorder.fmul(-0.0, 3.0)
    recorder.fdiv(0.0, 0.0)              # NaN result
    recorder.fadd(math.nan, 1.0)
    recorder.fmul(bits_to_float64(0x7FF0000000000BAD), 2.0)  # NaN payload
    tracked = recorder.track([1.5, -0.0])
    tracked[1] = tracked[0]
    recorder.fsqrt(-1.0)
    trace = recorder.trace
    _assert_parity(trace)
    events = trace.events
    assert events[0].result == 2 ** 64 and type(events[0].a) is int
    assert events[1].a == -(2 ** 63) and type(events[1].a) is int
    assert math.copysign(1.0, events[2].a) == -1.0
    assert math.isnan(events[3].result)
    assert math.isnan(events[4].a)
    assert float64_to_bits(events[5].a) == 0x7FF0000000000BAD


def test_trace_read_extended_and_read_again():
    recorder = OperationRecorder(record_sites=True)
    recorder.fmul(2.0, 3.0)
    first = recorder.trace
    assert len(first) == 1
    assert first[0].result == 6.0                    # materializes events
    for value in recorder.loop(range(2)):
        recorder.imul(value, 7)
    second = recorder.trace
    assert len(second) == 1 + 2 * 4
    iteration = [Opcode.IALU, Opcode.IALU, Opcode.BRANCH, Opcode.IMUL]
    assert [e.opcode for e in second] == [Opcode.FMUL] + iteration * 2
    assert second[0] == first[0]
    _assert_parity(second)
    assert len(first) == 1                           # the old view is a snapshot
    recorder.fadd(1.0, 1.0)
    third = recorder.trace
    assert len(third) == 1 + 2 * 4 + 1
    _assert_parity(third)
    assert recorder.trace is third                   # nothing new: same view
    assert recorder.events_recorded == len(third)
