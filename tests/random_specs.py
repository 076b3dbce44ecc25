"""Hypothesis strategies for random catalog specs and domains, shared by the
property tests."""
from hypothesis import strategies as st

from convexbench import Absolute, AsymmetricPower, PiecewiseLinear, SymmetricPower

coordinates = st.floats(-10.0, 10.0)
exponents = st.floats(1.0, 4.0, exclude_min=True)
tilt_sizes = st.floats(-5.0, 5.0)
# two distinct coordinates in order (0.0 and -0.0 count as one)
ordered_pairs = st.lists(coordinates, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def piecewise_linears(draw):
    n = draw(st.integers(1, 3))
    breakpoints = draw(st.lists(coordinates, min_size=n, max_size=n, unique=True))
    slopes = draw(st.lists(coordinates, min_size=n + 1, max_size=n + 1))
    return PiecewiseLinear(tuple(sorted(breakpoints)), tuple(sorted(slopes)))


# the kinds with a minimizer location x_star
X_STAR_SPECS = {
    "sym-power": st.builds(SymmetricPower, exponents, coordinates),
    "asym-power": st.builds(AsymmetricPower, exponents, exponents, coordinates),
    "absolute": st.builds(Absolute, coordinates),
}
x_star_specs = st.one_of(*X_STAR_SPECS.values())
