"""wakesim: uncertainty-triggered wake-up inference, simulated end to end.

An always-on log-domain naive Bayes front end screens a beat stream and
wakes an int8 MLP back end only on abnormal, ambiguous, or invalid
outcomes. The front end's code tables live in a simulated resistive array
whose read errors depend on the operating point, and a closed-form energy
model turns measured wake rates into average energy per input.
"""

__version__ = "0.1.0"
