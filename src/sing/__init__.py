"""SSM-guided symbolic music generation toolkit.

Pipeline: MIDI files -> binary piano rolls -> chroma self-similarity
matrices -> variable-length batch plans -> LSTM model with SSM-driven
attention -> constrained sampling -> structural evaluation.
"""

from sing.midi_io import Notes, PianoRoll, parse_midi, to_midi, to_piano_roll
from sing.structure import SelfSimilarityMatrix, SynthSpec, chroma, ssm, standardized_mse

__version__ = "0.1.0"

__all__ = [
    "Notes",
    "PianoRoll",
    "SelfSimilarityMatrix",
    "SynthSpec",
    "chroma",
    "parse_midi",
    "ssm",
    "standardized_mse",
    "to_midi",
    "to_piano_roll",
    "__version__",
]
