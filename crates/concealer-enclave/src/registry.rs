//! User registry and authentication (requirement R2 of the paper).
//!
//! The data provider keeps a per-service-provider registry of users who are
//! allowed to query, ships it to the service provider in encrypted form, and
//! the enclave authenticates every query against it before generating any
//! trapdoor. The registry also records *which device ids* a user owns so
//! that individualized queries (Q4/Q5 style, "my own past movements") can
//! only be asked about the requester's own devices — this is how the paper
//! prevents the service provider from masquerading as a user and prevents
//! users from mining each other's trajectories.
//!
//! Credentials are modelled as HMAC capabilities: DP derives
//! `cred = HMAC(registry_key, user_id)` and hands it to the user out of
//! band; the enclave, which knows `registry_key` (it is
//! [`MasterKey::registry_key`], derived from `sk`), recomputes and compares
//! in constant time. This stands in for the public/private key pairs of
//! the paper without pulling an asymmetric primitive into the
//! dependency-free crypto substrate.

use concealer_crypto::hmac::hmac_sha256;
use concealer_crypto::{ct_eq, MasterKey};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::{EnclaveError, Result};

/// Identifier of a registered user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(pub u64);

/// The capability a user presents when querying.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Credential(pub [u8; 32]);

/// What a user is allowed to ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryScope {
    /// Aggregate applications: occupancy counts, heat maps, top-k locations.
    /// Never reveals an individual's identity, so any registered user may
    /// run them.
    Aggregate,
    /// Individualized applications over a specific device/observation id.
    /// Only permitted when the device belongs to the requesting user.
    Individualized {
        /// The device / observation identifier being queried.
        device_id: u64,
    },
}

/// A registry entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisteredUser {
    /// The user's identifier.
    pub user_id: UserId,
    /// Device ids (observation values) owned by the user.
    pub devices: Vec<u64>,
    /// Whether DP has authorized the user for aggregate applications.
    pub aggregate_allowed: bool,
}

/// The registry built by the data provider and consumed by the enclave.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserRegistry {
    users: BTreeMap<u64, RegisteredUser>,
}

impl UserRegistry {
    /// Create an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered users.
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Register a user (DP side). Returns the credential DP hands to the
    /// user out of band. Registering an existing user updates their entry
    /// and re-issues the same credential (it only depends on the user id).
    pub fn register(
        &mut self,
        master: &MasterKey,
        user_id: UserId,
        devices: Vec<u64>,
        aggregate_allowed: bool,
    ) -> Credential {
        self.users.insert(
            user_id.0,
            RegisteredUser {
                user_id,
                devices,
                aggregate_allowed,
            },
        );
        Self::credential_for(master, user_id)
    }

    /// Remove a user (e.g. when they withdraw consent).
    pub fn deregister(&mut self, user_id: UserId) -> bool {
        self.users.remove(&user_id.0).is_some()
    }

    /// The credential DP would issue for `user_id`.
    #[must_use]
    pub fn credential_for(master: &MasterKey, user_id: UserId) -> Credential {
        Credential(hmac_sha256(
            &master.registry_key(),
            &user_id.0.to_be_bytes(),
        ))
    }

    /// Look up a user entry.
    #[must_use]
    pub fn get(&self, user_id: UserId) -> Option<&RegisteredUser> {
        self.users.get(&user_id.0)
    }

    /// Authenticate a user (enclave side): the registry entry of
    /// `user_id`, if `credential` is the one DP issued to them.
    pub fn authenticate(
        &self,
        master: &MasterKey,
        user_id: UserId,
        credential: &Credential,
    ) -> Result<&RegisteredUser> {
        let entry = self
            .users
            .get(&user_id.0)
            .ok_or(EnclaveError::UnknownUser)?;
        let expected = Self::credential_for(master, user_id);
        if !ct_eq(&expected.0, &credential.0) {
            return Err(EnclaveError::AuthenticationFailed);
        }
        Ok(entry)
    }

    /// Authenticate a user and authorize the requested scope (enclave
    /// side).
    pub fn authorize(
        &self,
        master: &MasterKey,
        user_id: UserId,
        credential: &Credential,
        scope: QueryScope,
    ) -> Result<()> {
        let entry = self.authenticate(master, user_id, credential)?;
        match scope {
            QueryScope::Aggregate => {
                if !entry.aggregate_allowed {
                    return Err(EnclaveError::Unauthorized {
                        reason: "user is not authorized for aggregate applications",
                    });
                }
            }
            QueryScope::Individualized { device_id } => {
                if !entry.devices.contains(&device_id) {
                    return Err(EnclaveError::Unauthorized {
                        reason: "device does not belong to the requesting user",
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master() -> MasterKey {
        MasterKey::from_bytes([42u8; 32])
    }

    #[test]
    fn register_and_authenticate_aggregate() {
        let mk = master();
        let mut reg = UserRegistry::new();
        let cred = reg.register(&mk, UserId(1), vec![100, 101], true);
        assert_eq!(reg.len(), 1);
        let entry = reg.authenticate(&mk, UserId(1), &cred).unwrap();
        assert_eq!(entry.user_id, UserId(1));
        assert_eq!(
            reg.authorize(&mk, UserId(1), &cred, QueryScope::Aggregate),
            Ok(())
        );
    }

    #[test]
    fn unknown_user_rejected() {
        let mk = master();
        let reg = UserRegistry::new();
        let cred = UserRegistry::credential_for(&mk, UserId(5));
        assert_eq!(
            reg.authorize(&mk, UserId(5), &cred, QueryScope::Aggregate),
            Err(EnclaveError::UnknownUser)
        );
    }

    #[test]
    fn wrong_credential_rejected() {
        let mk = master();
        let mut reg = UserRegistry::new();
        let _ = reg.register(&mk, UserId(1), vec![], true);
        let forged = Credential([0u8; 32]);
        assert_eq!(
            reg.authorize(&mk, UserId(1), &forged, QueryScope::Aggregate),
            Err(EnclaveError::AuthenticationFailed)
        );
        // A credential for a *different* user must not work either — this is
        // the "SP must not be able to impersonate a user" requirement.
        let other = UserRegistry::credential_for(&mk, UserId(2));
        assert_eq!(
            reg.authorize(&mk, UserId(1), &other, QueryScope::Aggregate),
            Err(EnclaveError::AuthenticationFailed)
        );
    }

    #[test]
    fn individualized_scope_enforced() {
        let mk = master();
        let mut reg = UserRegistry::new();
        let cred = reg.register(&mk, UserId(1), vec![500], true);
        assert!(reg
            .authorize(
                &mk,
                UserId(1),
                &cred,
                QueryScope::Individualized { device_id: 500 }
            )
            .is_ok());
        assert!(matches!(
            reg.authorize(
                &mk,
                UserId(1),
                &cred,
                QueryScope::Individualized { device_id: 501 }
            ),
            Err(EnclaveError::Unauthorized { .. })
        ));
    }

    #[test]
    fn aggregate_permission_flag_enforced() {
        let mk = master();
        let mut reg = UserRegistry::new();
        let cred = reg.register(&mk, UserId(3), vec![7], false);
        assert!(matches!(
            reg.authorize(&mk, UserId(3), &cred, QueryScope::Aggregate),
            Err(EnclaveError::Unauthorized { .. })
        ));
        assert!(reg
            .authorize(
                &mk,
                UserId(3),
                &cred,
                QueryScope::Individualized { device_id: 7 }
            )
            .is_ok());
    }

    #[test]
    fn deregister_removes_access() {
        let mk = master();
        let mut reg = UserRegistry::new();
        let cred = reg.register(&mk, UserId(9), vec![], true);
        assert!(reg.deregister(UserId(9)));
        assert!(!reg.deregister(UserId(9)));
        assert_eq!(
            reg.authorize(&mk, UserId(9), &cred, QueryScope::Aggregate),
            Err(EnclaveError::UnknownUser)
        );
    }

    #[test]
    fn issued_credentials_are_pinned() {
        // Every credential DP has handed out must keep authenticating:
        // these bytes were issued before the registry key had its own
        // derivation.
        let cred = UserRegistry::credential_for(&MasterKey::from_bytes([7; 32]), UserId(7));
        let hex: String = cred.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "737e4080995db6a175f4d8f469cd8d65180746d0737ef5e08cad19a339326568"
        );
    }

    #[test]
    fn credentials_differ_across_master_keys() {
        let a = UserRegistry::credential_for(&MasterKey::from_bytes([1; 32]), UserId(1));
        let b = UserRegistry::credential_for(&MasterKey::from_bytes([2; 32]), UserId(1));
        assert_ne!(a, b);
    }
}
