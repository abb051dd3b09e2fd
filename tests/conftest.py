"""Shared fixtures: one dataset and one fully trained denoiser per session."""
import diffcanon  # noqa: F401  first, so that its BLAS pin is set before numpy loads

import numpy as np
import pytest

from diffcanon.rng import Rng
from diffcanon import toydata
from diffcanon.diffusion import TrainConfig, linear_schedule, train_cdm


@pytest.fixture(scope="session")
def schedule():
    return linear_schedule()


@pytest.fixture(scope="session")
def dataset():
    return toydata.sample_dataset(1000, Rng(0).split("data"))


@pytest.fixture(scope="session")
def trained(dataset, schedule):
    """Denoiser trained at the full default settings, with its loss log."""
    model, losses = train_cdm(dataset, schedule, TrainConfig(), Rng(0).split("cdm"))
    return model, losses


@pytest.fixture(scope="session")
def trained_model(trained):
    return trained[0]
