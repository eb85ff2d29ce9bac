"""Validation of the retained backend knobs.

``DynamicTreeConfig(backend=...)`` and ``LearnerConfig(tree_backend=...)``
each accept one value, ``"numpy"``; they remain so that configurations and
checkpoints written with the field still load.  Any other value is an
error raised at construction time.
"""

from __future__ import annotations

import pytest

from repro.core.learner import LearnerConfig
from repro.models.dynamic_tree import DynamicTreeConfig


class TestBackendConfig:
    def test_dynamic_tree_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            DynamicTreeConfig(backend="cuda")

    def test_learner_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="tree_backend"):
            LearnerConfig(tree_backend="cuda")
