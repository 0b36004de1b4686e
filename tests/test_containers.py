"""All three binary container readers reject damaged input with ValueError; the
SINGSSM reader also rejects a matrix that is empty, asymmetric or outside [0, 1],
and the SINGCKPT reader any tensor layout but the one its writer writes for the
parameter shapes it is given."""

import struct

import numpy as np
import pytest

from sing.midi_io import PianoRoll, proll_from_bytes, proll_to_bytes
from sing.nn import (
    CKPT_MAGIC,
    CKPT_VERSION,
    ParamSet,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
)
from sing.structure import SelfSimilarityMatrix, ssm_from_bytes, ssm_to_bytes


def _proll_blob() -> bytes:
    data = np.zeros((128, 2), dtype=np.uint8)
    data[60, 0] = 1
    return proll_to_bytes(PianoRoll(data=data, tempo=120.0))


def _ssm_blob() -> bytes:
    return ssm_to_bytes(SelfSimilarityMatrix(values=np.eye(2)))


def params_of(*tensors: tuple[str, np.ndarray]) -> ParamSet:
    params = ParamSet()
    for name, value in tensors:
        params.add(name, value)
    return params


def _checkpoint_blob() -> bytes:
    return checkpoint_to_bytes(params_of(("w", np.arange(3.0))))


def _read_checkpoint(data: bytes) -> None:
    checkpoint_from_bytes(data, {"w": (3,)})


READERS = {
    "proll": (_proll_blob, proll_from_bytes),
    "ssm": (_ssm_blob, ssm_from_bytes),
    "checkpoint": (_checkpoint_blob, _read_checkpoint),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_truncated_and_padded_containers_rejected(kind):
    make, read = READERS[kind]
    blob = make()
    read(blob)  # the intact container loads
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            read(blob[:cut])
    with pytest.raises(ValueError):
        read(blob + b"\x00")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_ssm_rejected(bad):
    blob = bytearray(_ssm_blob())
    blob[12:16] = np.array([bad], dtype="<f4").tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        ssm_from_bytes(bytes(blob))


def test_empty_ssm_rejected():
    with pytest.raises(ValueError, match=r"0 x 0"):
        ssm_from_bytes(b"SINGSSM\x00" + bytes(4))


@pytest.mark.parametrize("bad", [5.0, -3.0, 1.0 + 2**-20, -(2**-20)])
def test_ssm_entry_outside_unit_interval_rejected_by_position(bad):
    values = np.full((3, 3), 0.5)
    values[1, 2] = values[2, 1] = values[2, 0] = bad
    with pytest.raises(ValueError, match=r"entry \(1, 2\) is .*outside \[0, 1\]"):
        ssm_from_bytes(ssm_to_bytes(SelfSimilarityMatrix(values=values)))


def test_asymmetric_ssm_rejected_by_position():
    values = np.full((4, 4), 0.5)
    values[2, 3] = values[3, 1] = 0.25
    with pytest.raises(ValueError, match=r"not symmetric: entry \(1, 3\) differs from \(3, 1\)"):
        ssm_from_bytes(ssm_to_bytes(SelfSimilarityMatrix(values=values)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_tensor_rejected_by_name(bad):
    blob = checkpoint_to_bytes(params_of(("w", np.array([0.0, bad, 1.0]))))
    with pytest.raises(ValueError, match="'w'.*non-finite"):
        _read_checkpoint(blob)


def raw_checkpoint(*entries: tuple[str, np.ndarray]) -> bytes:
    """A SINGCKPT container of the given (name, tensor) entries, in order."""
    blob = CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(entries))
    for name, array in entries:
        array = np.asarray(array, dtype="<f8")
        rows, cols = (*array.shape, 0)[:2]
        encoded = name.encode()
        blob += struct.pack("<I", len(encoded)) + encoded + struct.pack("<II", rows, cols)
        blob += array.tobytes()
    return blob


W = ("w", np.arange(6.0).reshape(2, 3))
W_MOMENTS = (("adam/m/w", np.zeros((2, 3))), ("adam/v/w", np.ones((2, 3))))
STEP = ("adam/step", [2.0])
W_SHAPES = {"w": (2, 3)}
# defect -> (entries, the message naming the first tensor off the layout of
# one (2, 3) parameter 'w')
CHECKPOINT_DEFECTS = {
    "repeated_name": ((W, *W_MOMENTS, ("w", [1.0]), ("adam/m/w", [0.0]), ("adam/v/w", [0.0]),
                       STEP), r"'w' \(1,\) where 'adam/step' \(1,\) belongs"),
    "name_order": ((("x", [1.0]), ("adam/m/x", [0.0]), ("adam/v/x", [0.0]), W, *W_MOMENTS, STEP),
                   r"'x' \(1,\) where 'w' \(2, 3\) belongs"),
    "moment_shape": ((W, ("adam/m/w", np.zeros(5)), W_MOMENTS[1], STEP),
                     r"'adam/m/w' \(5,\) where 'adam/m/w' \(2, 3\) belongs"),
    "moment_without_parameter": ((W, *W_MOMENTS, ("adam/v/x", [0.0]), STEP),
                                 r"'adam/v/x' \(1,\) where 'adam/step' \(1,\) belongs"),
    "parameter_without_moments": ((W, ("b", [1.0]), ("adam/m/b", [0.0]), ("adam/v/b", [0.0]),
                                   STEP), r"'b' \(1,\) where 'adam/m/w' \(2, 3\) belongs"),
    "fractional_step": ((W, *W_MOMENTS, ("adam/step", [2.5])),
                        r"'adam/step' is \[2.5\], not one whole number >= 0"),
    "negative_step": ((W, *W_MOMENTS, ("adam/step", [-4.0])), r"'adam/step' is \[-4.0\]"),
    "two_steps": ((W, *W_MOMENTS, ("adam/step", [1.0, 2.0])),
                  r"'adam/step' \(2,\) where 'adam/step' \(1,\) belongs"),
    "no_step": ((W, *W_MOMENTS), r"checkpoint ends where 'adam/step' \(1,\) belongs"),
}


def test_writer_layout_loads():
    params = checkpoint_from_bytes(raw_checkpoint(W, *W_MOMENTS, STEP), W_SHAPES)
    assert checkpoint_to_bytes(params) == raw_checkpoint(W, *W_MOMENTS, STEP)
    assert params.step == 2 and np.array_equal(params.v["w"], np.ones((2, 3)))


@pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
def test_checkpoint_layout_defect_rejected_by_name(defect):
    """The first tensor off the layout is named."""
    entries, message = CHECKPOINT_DEFECTS[defect]
    with pytest.raises(ValueError, match=message):
        checkpoint_from_bytes(raw_checkpoint(*entries), W_SHAPES)


def test_tensor_after_the_step_rejected():
    """A tensor past adam/step, or a count that claims one, is trailing."""
    blob = raw_checkpoint(W, *W_MOMENTS, STEP)
    overcounted = blob[:12] + struct.pack("<I", 5) + blob[16:]
    for data in (raw_checkpoint(W, *W_MOMENTS, STEP, ("x", [1.0])), overcounted):
        with pytest.raises(ValueError, match="trailing bytes after last tensor"):
            checkpoint_from_bytes(data, W_SHAPES)
