"""Standing wall-clock benchmark of the reproduction (see ``run.py``)."""
