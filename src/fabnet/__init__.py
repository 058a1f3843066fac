"""A small attention-augmented CNN framework, trainable at desk scale."""

__version__ = "0.1.0"
