"""Tightly coupled LiDAR-IMU odometry and globally consistent mapping."""
