module recycledb/benchmark

go 1.24

require recycledb v0.0.0

replace recycledb => ../
