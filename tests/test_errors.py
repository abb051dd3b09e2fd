"""Every error type survives pickling: a split trajectory's child sends its
exception to the parent pickled."""
import inspect
import pickle

import pytest

from diffcanon import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if cls.__module__ == errors.__name__]


def instances(cls):
    if cls is errors.TrainingDivergedError:
        return [cls(7), cls(7, "loss is nan at step 3")]
    return [cls("a message"), cls()]


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_error_survives_a_pickle_round_trip(cls):
    for exc in instances(cls):
        back = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.args == exc.args and vars(back) == vars(exc)


def test_the_classes_are_found():
    assert {errors.InvalidInputError, errors.TrainingDivergedError} <= set(CLASSES)
