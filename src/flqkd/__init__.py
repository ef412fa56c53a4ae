"""Floodlight-QKD security model: Gaussian attack entropies, key-rate
bounds with brightness optimization, and a Monte Carlo validator for the
calibration-free intrusion estimator."""
