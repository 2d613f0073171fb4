"""Reference engines and checks that only the tests run."""
