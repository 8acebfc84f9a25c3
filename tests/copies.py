"""A copy of a relext object with some attributes replaced.

relext's classes are plain classes, so dataclasses.replace no longer
applies to them; the tests that build a faulty variant of an algebra or a
cohomology space go through `replaced` instead.
"""

import copy


def replaced(obj, **changes):
    """A shallow copy of obj with the given attributes set: every other
    attribute, its caches included, is shared with obj, as
    dataclasses.replace shared them."""
    new = copy.copy(obj)
    vars(new).update(changes)
    return new
