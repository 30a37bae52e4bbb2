"""Named entry point of the measured N-tier placement search
(:mod:`repro.multitier.analysis`)."""
