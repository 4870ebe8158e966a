module leaserelease

go 1.23
