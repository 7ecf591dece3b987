"""Byte-mutation fuzzing of the four file parsers.

Each test mutates a valid file -- overwritten bytes, overwritten
little-endian u32 words, then an optional cut -- and requires the parser to
load it or raise one of the package's typed errors, never anything else. In
the binary formats the words land on header fields (counts, ranks, dims),
which byte flips in the payload would rarely reach.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hssr.cli import read_run_config
from hssr.errors import DimensionError, FormatError, ParameterError
from hssr.hsdata import DatasetManifest, HSCube, read_cube, read_manifest, write_cube, write_manifest
from hssr.model import NetConfig, build_net
from hssr.train import load_checkpoint, save_checkpoint

TYPED = (FormatError, ParameterError, DimensionError)


def _pdec_fields(blob: bytes) -> list:
    """Offsets of a PDEC file's u32 fields: the entry count, then per entry
    its name length, rank and dims."""
    offs, off = [8], 12
    while off < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, off)
        (ndim,) = struct.unpack_from("<I", blob, off + 4 + nlen)
        offs += [off] + [off + 4 + nlen + 4 * i for i in range(ndim + 1)]
        dims = struct.unpack_from(f"<{ndim}I", blob, off + 8 + nlen)
        off += 8 + nlen + 4 * (ndim + math.prod(dims))
    return offs


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per parser, as bytes, with the offsets its u32 word
    mutations may hit."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    write_cube(HSCube(rng.random((3, 4, 5)).astype(np.float32)), d / "c.hsc")
    net = build_net(NetConfig(bands=2, scale=2, stages=1, units_per_stage=1, channels=4), rng)
    save_checkpoint(net, d / "c.pdec")
    man = DatasetManifest([("hr/train/a.hsc", "train"), ("hr/test/b.hsc", "test")], scale=2)
    write_manifest(man, d / "m.txt")
    (d / "r.cfg").write_text("manifest=m.txt\nstages=2\nlambda=0.5\naugment=no\nseed=7\n")
    blobs = {name: (d / name).read_bytes() for name in ("c.hsc", "c.pdec", "m.txt", "r.cfg")}
    fields = {"c.hsc": [4, 8, 12], "c.pdec": _pdec_fields(blobs["c.pdec"])}
    return {name: (blob, fields.get(name, range(len(blob) - 3))) for name, blob in blobs.items()}


mutations = st.fixed_dictionaries({
    "bytes": st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                      max_size=4),
    "words": st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                st.sampled_from([0, 1, 5, 65, 1 << 16, 1 << 31, (1 << 32) - 1])),
                      max_size=2),
    "cut": st.none() | st.floats(0, 1),
})


def _mutate(blob: bytes, fields, m: dict) -> bytes:
    out = bytearray(blob)
    for at, value in m["bytes"]:
        out[int(at * len(out))] = value
    for at, value in m["words"]:
        i = fields[int(at * len(fields))]
        out[i:i + 4] = struct.pack("<I", value)
    if m["cut"] is not None:
        del out[int(m["cut"] * len(out)):]
    return bytes(out)


@pytest.mark.parametrize("name,parse", [
    ("c.hsc", read_cube),
    ("c.pdec", load_checkpoint),
    ("m.txt", read_manifest),
    ("r.cfg", read_run_config),
], ids=["read_cube", "load_checkpoint", "read_manifest", "read_run_config"])
@given(m=mutations)
def test_mutated_file_loads_or_raises_a_typed_error(valid, tmp_path_factory, name, parse, m):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{name}"
    path.write_bytes(_mutate(*valid[name], m))
    try:
        parse(path)
    except TYPED:
        pass
