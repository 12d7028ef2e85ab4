//! The U1 API operations (Table 2) and DAL RPC vocabulary (Tables 2 & 4).
//!
//! These enums are the shared language of the whole workspace: the protocol
//! crate encodes them on the wire, the server translates API operations into
//! RPC calls, the trace crate logs both, and the analytics crate aggregates
//! them back into the paper's figures.

use serde::Serialize;
use std::fmt;

/// A client-visible API operation of the U1 storage protocol (Table 2),
/// plus the session bookkeeping events the trace distinguishes (§4: request
/// types `storage`/`storage_done`, `rpc`, `session`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum ApiOpKind {
    /// Establish a session from an OAuth token.
    Authenticate,
    /// List all volumes of a user (start of session).
    ListVolumes,
    /// List volumes of type shared.
    ListShares,
    /// Upload file contents (PutContent).
    Upload,
    /// Download file contents (GetContent).
    Download,
    /// Create a file node entry ("touch", precedes an upload).
    MakeFile,
    /// Create a directory node.
    MakeDir,
    /// Delete a file or directory from a volume.
    Unlink,
    /// Move a node between directories.
    Move,
    /// Create a user-defined volume.
    CreateUdf,
    /// Delete a volume and the contained nodes.
    DeleteVolume,
    /// Get differences between server and local volume (generations).
    GetDelta,
    /// Full state transfer when generations can't be used.
    RescanFromScratch,
    /// Capability negotiation at session start.
    QuerySetCaps,
    /// Session opened (trace bookkeeping; not a Table-2 op).
    OpenSession,
    /// Session closed (trace bookkeeping).
    CloseSession,
}

impl ApiOpKind {
    /// All operations, in the order Fig. 7(a) presents them (plus the
    /// extras that appear in Fig. 8).
    pub const ALL: [ApiOpKind; 16] = [
        ApiOpKind::Move,
        ApiOpKind::GetDelta,
        ApiOpKind::Unlink,
        ApiOpKind::DeleteVolume,
        ApiOpKind::CreateUdf,
        ApiOpKind::ListVolumes,
        ApiOpKind::ListShares,
        ApiOpKind::MakeFile,
        ApiOpKind::MakeDir,
        ApiOpKind::Upload,
        ApiOpKind::Download,
        ApiOpKind::OpenSession,
        ApiOpKind::CloseSession,
        ApiOpKind::Authenticate,
        ApiOpKind::RescanFromScratch,
        ApiOpKind::QuerySetCaps,
    ];

    /// Whether this is a data-management operation: an operation a user
    /// must be *active* (not merely online) to issue (§6.1). The paper
    /// counts uploads, downloads and namespace changes as data management;
    /// session start-up chatter is not.
    pub fn is_data_management(self) -> bool {
        matches!(
            self,
            ApiOpKind::Upload
                | ApiOpKind::Download
                | ApiOpKind::MakeFile
                | ApiOpKind::MakeDir
                | ApiOpKind::Unlink
                | ApiOpKind::Move
                | ApiOpKind::CreateUdf
                | ApiOpKind::DeleteVolume
        )
    }

    /// Whether the operation moves file contents to/from the data store
    /// (§3.1.2's "data management operations" that reach Amazon S3).
    pub fn is_transfer(self) -> bool {
        matches!(self, ApiOpKind::Upload | ApiOpKind::Download)
    }

    /// Stable lowercase label used in trace CSV lines.
    pub fn label(self) -> &'static str {
        match self {
            ApiOpKind::Authenticate => "auth",
            ApiOpKind::ListVolumes => "list_volumes",
            ApiOpKind::ListShares => "list_shares",
            ApiOpKind::Upload => "upload",
            ApiOpKind::Download => "download",
            ApiOpKind::MakeFile => "make_file",
            ApiOpKind::MakeDir => "make_dir",
            ApiOpKind::Unlink => "unlink",
            ApiOpKind::Move => "move",
            ApiOpKind::CreateUdf => "create_udf",
            ApiOpKind::DeleteVolume => "delete_volume",
            ApiOpKind::GetDelta => "get_delta",
            ApiOpKind::RescanFromScratch => "rescan_from_scratch",
            ApiOpKind::QuerySetCaps => "query_set_caps",
            ApiOpKind::OpenSession => "open_session",
            ApiOpKind::CloseSession => "close_session",
        }
    }

    /// Parses a label produced by [`ApiOpKind::label`].
    pub fn from_label(s: &str) -> Option<ApiOpKind> {
        Self::from_label_bytes(s.as_bytes())
    }

    /// [`ApiOpKind::from_label`] on the raw bytes of a trace line. A byte
    /// `match` compiles to a switch on the length and then on bytes, not a
    /// string compare per kind.
    pub fn from_label_bytes(s: &[u8]) -> Option<ApiOpKind> {
        Some(match s {
            b"auth" => ApiOpKind::Authenticate,
            b"list_volumes" => ApiOpKind::ListVolumes,
            b"list_shares" => ApiOpKind::ListShares,
            b"upload" => ApiOpKind::Upload,
            b"download" => ApiOpKind::Download,
            b"make_file" => ApiOpKind::MakeFile,
            b"make_dir" => ApiOpKind::MakeDir,
            b"unlink" => ApiOpKind::Unlink,
            b"move" => ApiOpKind::Move,
            b"create_udf" => ApiOpKind::CreateUdf,
            b"delete_volume" => ApiOpKind::DeleteVolume,
            b"get_delta" => ApiOpKind::GetDelta,
            b"rescan_from_scratch" => ApiOpKind::RescanFromScratch,
            b"query_set_caps" => ApiOpKind::QuerySetCaps,
            b"open_session" => ApiOpKind::OpenSession,
            b"close_session" => ApiOpKind::CloseSession,
            _ => return None,
        })
    }

    /// Human name as printed in the paper's figures.
    pub fn display_name(self) -> &'static str {
        match self {
            ApiOpKind::Authenticate => "Authenticate",
            ApiOpKind::ListVolumes => "List Vol.",
            ApiOpKind::ListShares => "List Shares",
            ApiOpKind::Upload => "Upload",
            ApiOpKind::Download => "Download",
            ApiOpKind::MakeFile => "Make (file)",
            ApiOpKind::MakeDir => "Make (dir)",
            ApiOpKind::Unlink => "Unlink",
            ApiOpKind::Move => "Move",
            ApiOpKind::CreateUdf => "Create UDF",
            ApiOpKind::DeleteVolume => "Del. Vol.",
            ApiOpKind::GetDelta => "Get Delta",
            ApiOpKind::RescanFromScratch => "RescanFromScratch",
            ApiOpKind::QuerySetCaps => "QuerySetCaps",
            ApiOpKind::OpenSession => "Open Session",
            ApiOpKind::CloseSession => "Close Session",
        }
    }
}

impl fmt::Display for ApiOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A DAL (data-access-layer) RPC against the metadata store. The union of
/// the `Related RPC` column of Table 2 and the upload RPCs of Table 4, plus
/// the authentication RPC of Fig. 12(c).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum RpcKind {
    // Table 2: file-system management.
    ListVolumes,
    ListShares,
    MakeDir,
    MakeFile,
    UnlinkNode,
    Move,
    CreateUdf,
    DeleteVolume,
    GetDelta,
    GetVolumeId,
    // Fig. 12(c): other read-only RPCs.
    GetUserIdFromToken,
    GetFromScratch,
    GetNode,
    GetRoot,
    GetUserData,
    // Table 4: upload management.
    AddPartToUploadJob,
    DeleteUploadJob,
    GetReusableContent,
    GetUploadJob,
    MakeContent,
    MakeUploadJob,
    SetUploadJobMultipartId,
    TouchUploadJob,
}

/// The three RPC cost classes of Fig. 13.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum RpcClass {
    /// Lockless parallel reads against a shard pair.
    Read,
    /// Writes/updates/deletes of single rows.
    Write,
    /// Operations that fan out to other operations (delete_volume,
    /// get_from_scratch) — "more than one order of magnitude slower".
    Cascade,
}

impl RpcKind {
    pub const ALL: [RpcKind; 23] = [
        RpcKind::ListVolumes,
        RpcKind::ListShares,
        RpcKind::MakeDir,
        RpcKind::MakeFile,
        RpcKind::UnlinkNode,
        RpcKind::Move,
        RpcKind::CreateUdf,
        RpcKind::DeleteVolume,
        RpcKind::GetDelta,
        RpcKind::GetVolumeId,
        RpcKind::GetUserIdFromToken,
        RpcKind::GetFromScratch,
        RpcKind::GetNode,
        RpcKind::GetRoot,
        RpcKind::GetUserData,
        RpcKind::AddPartToUploadJob,
        RpcKind::DeleteUploadJob,
        RpcKind::GetReusableContent,
        RpcKind::GetUploadJob,
        RpcKind::MakeContent,
        RpcKind::MakeUploadJob,
        RpcKind::SetUploadJobMultipartId,
        RpcKind::TouchUploadJob,
    ];

    /// The DAL name as it appears in the paper's tables (`dal.*`,
    /// `auth.*`).
    pub fn dal_name(self) -> &'static str {
        match self {
            RpcKind::ListVolumes => "dal.list_volumes",
            RpcKind::ListShares => "dal.list_shares",
            RpcKind::MakeDir => "dal.make_dir",
            RpcKind::MakeFile => "dal.make_file",
            RpcKind::UnlinkNode => "dal.unlink_node",
            RpcKind::Move => "dal.move",
            RpcKind::CreateUdf => "dal.create_udf",
            RpcKind::DeleteVolume => "dal.delete_volume",
            RpcKind::GetDelta => "dal.get_delta",
            RpcKind::GetVolumeId => "dal.get_volume_id",
            RpcKind::GetUserIdFromToken => "auth.get_user_id_from_token",
            RpcKind::GetFromScratch => "dal.get_from_scratch",
            RpcKind::GetNode => "dal.get_node",
            RpcKind::GetRoot => "dal.get_root",
            RpcKind::GetUserData => "dal.get_user_data",
            RpcKind::AddPartToUploadJob => "dal.add_part_to_uploadjob",
            RpcKind::DeleteUploadJob => "dal.delete_uploadjob",
            RpcKind::GetReusableContent => "dal.get_reusable_content",
            RpcKind::GetUploadJob => "dal.get_uploadjob",
            RpcKind::MakeContent => "dal.make_content",
            RpcKind::MakeUploadJob => "dal.make_uploadjob",
            RpcKind::SetUploadJobMultipartId => "dal.set_uploadjob_multipart_id",
            RpcKind::TouchUploadJob => "dal.touch_uploadjob",
        }
    }

    /// Parses a [`RpcKind::dal_name`].
    pub fn from_dal_name(s: &str) -> Option<RpcKind> {
        Self::from_dal_name_bytes(s.as_bytes())
    }

    /// [`RpcKind::from_dal_name`] on the raw bytes of a trace line (RPC
    /// lines are the majority of a trace); see
    /// [`ApiOpKind::from_label_bytes`].
    pub fn from_dal_name_bytes(s: &[u8]) -> Option<RpcKind> {
        Some(match s {
            b"dal.list_volumes" => RpcKind::ListVolumes,
            b"dal.list_shares" => RpcKind::ListShares,
            b"dal.make_dir" => RpcKind::MakeDir,
            b"dal.make_file" => RpcKind::MakeFile,
            b"dal.unlink_node" => RpcKind::UnlinkNode,
            b"dal.move" => RpcKind::Move,
            b"dal.create_udf" => RpcKind::CreateUdf,
            b"dal.delete_volume" => RpcKind::DeleteVolume,
            b"dal.get_delta" => RpcKind::GetDelta,
            b"dal.get_volume_id" => RpcKind::GetVolumeId,
            b"auth.get_user_id_from_token" => RpcKind::GetUserIdFromToken,
            b"dal.get_from_scratch" => RpcKind::GetFromScratch,
            b"dal.get_node" => RpcKind::GetNode,
            b"dal.get_root" => RpcKind::GetRoot,
            b"dal.get_user_data" => RpcKind::GetUserData,
            b"dal.add_part_to_uploadjob" => RpcKind::AddPartToUploadJob,
            b"dal.delete_uploadjob" => RpcKind::DeleteUploadJob,
            b"dal.get_reusable_content" => RpcKind::GetReusableContent,
            b"dal.get_uploadjob" => RpcKind::GetUploadJob,
            b"dal.make_content" => RpcKind::MakeContent,
            b"dal.make_uploadjob" => RpcKind::MakeUploadJob,
            b"dal.set_uploadjob_multipart_id" => RpcKind::SetUploadJobMultipartId,
            b"dal.touch_uploadjob" => RpcKind::TouchUploadJob,
            _ => return None,
        })
    }

    /// The Fig. 13 cost class of this RPC.
    pub fn class(self) -> RpcClass {
        match self {
            RpcKind::ListVolumes
            | RpcKind::ListShares
            | RpcKind::GetDelta
            | RpcKind::GetVolumeId
            | RpcKind::GetUserIdFromToken
            | RpcKind::GetNode
            | RpcKind::GetRoot
            | RpcKind::GetUserData
            | RpcKind::GetReusableContent
            | RpcKind::GetUploadJob => RpcClass::Read,
            RpcKind::MakeDir
            | RpcKind::MakeFile
            | RpcKind::UnlinkNode
            | RpcKind::Move
            | RpcKind::CreateUdf
            | RpcKind::AddPartToUploadJob
            | RpcKind::DeleteUploadJob
            | RpcKind::MakeContent
            | RpcKind::MakeUploadJob
            | RpcKind::SetUploadJobMultipartId
            | RpcKind::TouchUploadJob => RpcClass::Write,
            RpcKind::DeleteVolume | RpcKind::GetFromScratch => RpcClass::Cascade,
        }
    }

    /// The Fig. 12 panel this RPC is plotted in.
    pub fn figure12_panel(self) -> &'static str {
        match self {
            RpcKind::AddPartToUploadJob
            | RpcKind::DeleteUploadJob
            | RpcKind::GetReusableContent
            | RpcKind::GetUploadJob
            | RpcKind::MakeContent
            | RpcKind::MakeUploadJob
            | RpcKind::SetUploadJobMultipartId
            | RpcKind::TouchUploadJob => "upload",
            RpcKind::GetUserIdFromToken
            | RpcKind::GetFromScratch
            | RpcKind::GetNode
            | RpcKind::GetRoot
            | RpcKind::GetUserData => "other",
            _ => "fs",
        }
    }
}

impl RpcClass {
    pub fn label(self) -> &'static str {
        match self {
            RpcClass::Read => "read",
            RpcClass::Write => "write",
            RpcClass::Cascade => "cascade",
        }
    }
}

impl fmt::Display for RpcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.dal_name())
    }
}

impl fmt::Display for RpcClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rpc_names_match_paper() {
        assert_eq!(RpcKind::ListVolumes.dal_name(), "dal.list_volumes");
        assert_eq!(RpcKind::UnlinkNode.dal_name(), "dal.unlink_node");
        assert_eq!(
            RpcKind::GetUserIdFromToken.dal_name(),
            "auth.get_user_id_from_token"
        );
        assert_eq!(
            RpcKind::SetUploadJobMultipartId.dal_name(),
            "dal.set_uploadjob_multipart_id"
        );
    }

    #[test]
    fn cascade_class_contains_exactly_the_paper_pair() {
        let cascades: Vec<RpcKind> = RpcKind::ALL
            .into_iter()
            .filter(|k| k.class() == RpcClass::Cascade)
            .collect();
        assert_eq!(
            cascades,
            vec![RpcKind::DeleteVolume, RpcKind::GetFromScratch]
        );
    }

    /// Every name parses back to its kind; no proper prefix, proper suffix
    /// or case variant of a name parses at all. Exhaustive, so a name added
    /// to `label`/`dal_name` but not to the byte `match` fails here.
    fn assert_exact_inverse<K: Copy + PartialEq + std::fmt::Debug>(
        all: &[K],
        name: fn(K) -> &'static str,
        parse: fn(&str) -> Option<K>,
    ) {
        for &k in all {
            let s = name(k);
            assert_eq!(parse(s), Some(k), "{s}");
            for cut in 1..s.len() {
                assert_eq!(parse(&s[..cut]), None, "prefix {:?}", &s[..cut]);
                assert_eq!(parse(&s[cut..]), None, "suffix {:?}", &s[cut..]);
            }
            assert_eq!(parse(&s.to_ascii_uppercase()), None, "upper-cased {s}");
            for (i, c) in s.char_indices().filter(|(_, c)| c.is_ascii_lowercase()) {
                let mut one = s.to_string();
                one.replace_range(i..=i, &c.to_ascii_uppercase().to_string());
                assert_eq!(parse(&one), None, "{one}");
            }
        }
        for bad in ["", "bogus", " ", "dal.", "-"] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn op_labels_round_trip() {
        assert_exact_inverse(&ApiOpKind::ALL, ApiOpKind::label, ApiOpKind::from_label);
    }

    #[test]
    fn rpc_names_round_trip() {
        assert_exact_inverse(&RpcKind::ALL, RpcKind::dal_name, RpcKind::from_dal_name);
    }

    #[test]
    fn data_management_classification() {
        assert!(ApiOpKind::Upload.is_data_management());
        assert!(ApiOpKind::Unlink.is_data_management());
        assert!(!ApiOpKind::ListVolumes.is_data_management());
        assert!(!ApiOpKind::GetDelta.is_data_management());
        assert!(!ApiOpKind::OpenSession.is_data_management());
        assert!(ApiOpKind::Upload.is_transfer());
        assert!(!ApiOpKind::MakeFile.is_transfer());
    }

    #[test]
    fn figure12_panels_partition_all_rpcs() {
        let mut fs = 0;
        let mut up = 0;
        let mut other = 0;
        for k in RpcKind::ALL {
            match k.figure12_panel() {
                "fs" => fs += 1,
                "upload" => up += 1,
                "other" => other += 1,
                _ => unreachable!(),
            }
        }
        assert_eq!(up, 8, "Table 4 lists 8 upload RPCs");
        assert_eq!(other, 5, "Fig. 12(c) plots 5 RPCs");
        assert_eq!(fs + up + other, RpcKind::ALL.len());
    }
}
